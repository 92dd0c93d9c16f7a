# Run one paper bench and compare its stdout byte for byte with the
# checked-in golden rows.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DOUT=<scratch
#         file> -P compare.cmake
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differ)
if(differ)
    file(READ ${OUT} got)
    message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}; got:\n${got}")
endif()
