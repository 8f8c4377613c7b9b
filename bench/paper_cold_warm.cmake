# Runs BENCH (bench_paper) twice in an empty WORK_DIR: the first run
# trains and saves its models, the second loads them.  Fails unless both
# print the same stdout, ignoring blank lines and the [ml], [sweep] and
# warn: lines, which name the model files and the wall times.
#   cmake -DBENCH=<path> -DWORK_DIR=<dir> -P paper_cold_warm.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(pass cold warm)
    execute_process(COMMAND "${BENCH}"
        WORKING_DIRECTORY "${WORK_DIR}"
        OUTPUT_VARIABLE out ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    message("--- ${pass} run ---\n${out}${err}")
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${pass} run exited with ${rc}")
    endif()
    if(pass STREQUAL "warm" AND NOT out MATCHES "loaded cached model")
        message(FATAL_ERROR "warm run did not load the saved models")
    endif()
    string(REGEX REPLACE "\n(\\[ml\\]|\\[sweep\\]|warn: )[^\n]*" ""
           lines "\n${out}")
    string(REGEX REPLACE "\n\n+" "\n" lines_${pass} "${lines}")
endforeach()
if(NOT lines_cold MATCHES "\nRW500 " OR NOT lines_cold MATCHES "\nRW2000 ")
    message(FATAL_ERROR "no NRMSE rows in the output")
endif()
if(NOT lines_cold STREQUAL lines_warm)
    message(FATAL_ERROR "cold and warm runs disagree:\n"
        "cold:${lines_cold}\nwarm:${lines_warm}")
endif()
