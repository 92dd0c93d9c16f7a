# Must-fail twin of a gate script: plant one edit in a copy of the file
# the gate checks, run the gate on the copy, and require it to fail
# with its own message. A gate that passes the planted copy, or fails
# for another reason, fails this check.
#
#   cmake -DFILE=<checked file> -DCOPY=<scratch copy>
#         -DFROM=<text, once in FILE> -DTO=<replacement>
#         -DGATE=<gate .cmake> -DDEFS=<-DVAR=value!-DVAR=value...>
#         -DMATCH=<regex the gate's message must match, spaces single>
#         -P must_fail.cmake
#
# DEFS is split on '!', which no gate argument holds ('|' is
# pin.cmake's own ARGS separator).
file(READ "${FILE}" text)
string(FIND "${text}" "${FROM}" first)
string(FIND "${text}" "${FROM}" last REVERSE)
if(first EQUAL -1 OR NOT first EQUAL last)
    message(FATAL_ERROR "'${FROM}' is not in ${FILE} exactly once")
endif()
string(REPLACE "${FROM}" "${TO}" planted "${text}")
file(WRITE "${COPY}" "${planted}")

string(REPLACE "!" ";" defs "${DEFS}")
execute_process(COMMAND ${CMAKE_COMMAND} ${defs} -P ${GATE}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "${GATE} passed ${COPY}, which plants "
                        "'${TO}' for '${FROM}'")
endif()
# CMake wraps message() text; match against it with every run of
# whitespace folded to one space.
string(REGEX REPLACE "[ \t\r\n]+" " " said "${out}${err}")
if(NOT said MATCHES "${MATCH}")
    message(FATAL_ERROR "${GATE} failed without '${MATCH}':\n${out}${err}")
endif()
