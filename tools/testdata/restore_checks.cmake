# Checked restores through snap-run (docs/CHECKPOINT.md). Save a
# cycle-fidelity snapshot, then restore it twice:
#  - with --fidelity fast, snap-run must exit 1 naming the node and the
#    knob;
#  - with the saving run's knobs, it must exit 0 and print the straight
#    run's rows (checkpoint lines aside).
#
#   cmake -DSNAP_RUN=<snap-run> -DSCN=<scenario> -DDIR=<scratch dir>
#         -P restore_checks.cmake
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${SNAP_RUN} --scenario=${SCN} --save-at=20
                    --save=${DIR}/cycle.snap --row=${DIR}/straight.row
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "saving run exited with ${rc}")
endif()

execute_process(COMMAND ${SNAP_RUN} --scenario=${SCN}
                    --restore=${DIR}/cycle.snap --fidelity fast
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "restore at another fidelity exited with ${rc}, "
                        "want 1; stderr:\n${err}")
endif()
string(FIND "${err}" "snapshot node n0: fidelity cycle != this network's fast"
       at)
if(at EQUAL -1)
    message(FATAL_ERROR "restore error does not name the knob:\n${err}")
endif()

execute_process(COMMAND ${SNAP_RUN} --scenario=${SCN}
                    --restore=${DIR}/cycle.snap --row=${DIR}/resumed.row
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "matching restore exited with ${rc}:\n${err}")
endif()
file(STRINGS ${DIR}/straight.row straight)
file(STRINGS ${DIR}/resumed.row resumed)
list(FILTER straight EXCLUDE REGEX "^checkpoint=")
list(FILTER resumed EXCLUDE REGEX "^checkpoint=")
if(NOT straight STREQUAL resumed)
    message(FATAL_ERROR "resumed rows differ from the straight run:\n"
                        "${resumed}\nvs\n${straight}")
endif()
