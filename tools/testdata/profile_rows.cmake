# A profiled scenario run checkpoints like any other: with --profile
# it must exit 0, close its metrics stream with profile rows, and
# write rows (checkpoint lines included) byte-identical to the
# unprofiled run's.
#
#   cmake -DSNAP_RUN=<snap-run> -DSCN=<scenario> -DDIR=<scratch dir>
#         -P profile_rows.cmake
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${SNAP_RUN} --scenario=${SCN}
                    --row=${DIR}/plain.row
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "unprofiled run exited with ${rc}:\n${err}")
endif()
execute_process(COMMAND ${SNAP_RUN} --scenario=${SCN} --profile
                    --metrics=${DIR}/profiled.jsonl
                    --row=${DIR}/profiled.row
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "profiled run exited with ${rc}:\n${err}")
endif()
file(READ ${DIR}/plain.row plain)
file(READ ${DIR}/profiled.row profiled)
if(NOT plain STREQUAL profiled)
    message(FATAL_ERROR "profiled rows differ from the unprofiled run:\n"
                        "${profiled}\nvs\n${plain}")
endif()
file(STRINGS ${DIR}/profiled.jsonl rows REGEX "\"kind\":\"profile\"")
if(NOT rows)
    message(FATAL_ERROR "profiled run wrote no profile rows")
endif()
