# Runs BENCH (bench_nrmse_ml) twice in an empty WORK_DIR: the first run
# trains and saves its models, the second loads them.  Fails unless both
# print the same RW rows.
#   cmake -DBENCH=<path> -DWORK_DIR=<dir> -P nrmse_cold_warm.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(pass cold warm)
    execute_process(COMMAND "${BENCH}"
        WORKING_DIRECTORY "${WORK_DIR}"
        OUTPUT_VARIABLE out ERROR_VARIABLE out
        RESULT_VARIABLE rc)
    message("--- ${pass} run ---\n${out}")
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${pass} run exited with ${rc}")
    endif()
    if(pass STREQUAL "warm" AND NOT out MATCHES "loaded cached model")
        message(FATAL_ERROR "warm run did not load the saved models")
    endif()
    string(REGEX MATCHALL "\nRW[^\n]*" rows_${pass} "${out}")
endforeach()
if(NOT rows_cold)
    message(FATAL_ERROR "no RW rows in the output")
endif()
if(NOT rows_cold STREQUAL rows_warm)
    message(FATAL_ERROR "cold and warm runs disagree:\n"
        "cold:${rows_cold}\nwarm:${rows_warm}")
endif()
