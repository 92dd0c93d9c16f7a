# Run COMMAND with ARGS ('|'-separated) and require exit status RC and
# the text MATCH (a regex) in its stderr.
#
#   cmake -DCOMMAND=<program> -DARGS=<arg|arg|...> -DRC=<status>
#         -DMATCH=<regex> -P exit_check.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${COMMAND} ${args}
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL RC)
    message(FATAL_ERROR "exited with ${rc}, want ${RC}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${MATCH}")
    message(FATAL_ERROR "stderr does not match '${MATCH}':\n${err}")
endif()
