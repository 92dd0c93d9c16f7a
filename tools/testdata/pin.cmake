# Byte pin of one snap-run output against a file captured earlier.
# SNAP_RUN may name another tool (snap-report); the comparison is the
# same.
#
#   cmake -DSNAP_RUN=<snap-run> -DARGS=<arg|arg|...> -DGOLDEN=<file>
#         [-DOUT=<file>] [-DDROP=<regex>] -P pin.cmake
#
# Runs SNAP_RUN with ARGS ('|'-separated) and compares its stdout, or
# the file OUT when given (the run must write it), with GOLDEN. Lines
# matching DROP are left out of the comparison; stdout always loses
# its wall-clock `host speed` line. On a mismatch the actual bytes are
# kept next to OUT (or in the working directory) as <golden>.actual.
string(REPLACE "|" ";" args "${ARGS}")
if(OUT)
    get_filename_component(dir ${OUT} DIRECTORY)
    file(MAKE_DIRECTORY ${dir})
    file(REMOVE ${OUT})
endif()
execute_process(COMMAND ${SNAP_RUN} ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "snap-run exited with ${rc}:\n${err}")
endif()
if(OUT)
    file(READ ${OUT} out)
elseif(DROP)
    set(DROP "^host speed|${DROP}")
else()
    set(DROP "^host speed")
endif()
if(DROP)
    string(REGEX MATCHALL "[^\n]*\n" lines "${out}")
    set(out "")
    foreach(line IN LISTS lines)
        if(NOT line MATCHES "${DROP}")
            string(APPEND out "${line}")
        endif()
    endforeach()
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
    get_filename_component(name ${GOLDEN} NAME)
    if(OUT)
        get_filename_component(dir ${OUT} DIRECTORY)
    else()
        set(dir .)
    endif()
    file(WRITE ${dir}/${name}.actual "${out}")
    message(FATAL_ERROR "output differs from ${GOLDEN}; actual bytes "
                        "in ${dir}/${name}.actual")
endif()
