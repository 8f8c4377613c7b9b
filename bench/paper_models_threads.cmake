# Runs BENCH (bench_paper) at PEARL_THREADS=1 and at PEARL_THREADS=4,
# each in its own empty directory under WORK_DIR, so both train its
# four models.  Training, the figure grid and the NRMSE table run their
# jobs concurrently, so none may depend on the thread count: fails
# unless both runs write the same four model files and the same
# PEARL_METRICS_DUMP file (the header and one row per grid job: 22 at
# PEARL_BENCH_PAIRS=1), byte for byte, and print the same stdout,
# ignoring blank lines and the [ml], [sweep] and warn: lines (as
# paper_cold_warm.cmake does).
#   cmake -DBENCH=<path> -DWORK_DIR=<dir> -P paper_models_threads.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
foreach(threads 1 4)
    set(dir "${WORK_DIR}/threads${threads}")
    file(MAKE_DIRECTORY "${dir}")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env PEARL_THREADS=${threads}
                PEARL_METRICS_DUMP=metrics.csv "${BENCH}"
        WORKING_DIRECTORY "${dir}"
        OUTPUT_VARIABLE out ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "PEARL_THREADS=${threads} run exited with ${rc}:\n${out}${err}")
    endif()
    file(GLOB models_${threads} RELATIVE "${dir}" "${dir}/*.model")
    list(SORT models_${threads})
    string(REGEX REPLACE "\n(\\[ml\\]|\\[sweep\\]|warn: )[^\n]*" ""
           lines "\n${out}")
    string(REGEX REPLACE "\n\n+" "\n" lines_${threads} "${lines}")
endforeach()
if(NOT lines_1 MATCHES "\nRW500 " OR NOT lines_1 MATCHES "\nRW2000 ")
    message(FATAL_ERROR "no NRMSE rows in the output")
endif()
if(NOT lines_1 STREQUAL lines_4)
    message(FATAL_ERROR "PEARL_THREADS=1 and =4 runs print different "
        "output:\n1 thread:${lines_1}\n4 threads:${lines_4}")
endif()
list(LENGTH models_1 count)
if(NOT count EQUAL 4)
    message(FATAL_ERROR "expected 4 model files, got: ${models_1}")
endif()
if(NOT models_1 STREQUAL models_4)
    message(FATAL_ERROR
        "the runs wrote different model files:\n"
        "1 thread: ${models_1}\n4 threads: ${models_4}")
endif()
foreach(model IN LISTS models_1)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${WORK_DIR}/threads1/${model}" "${WORK_DIR}/threads4/${model}"
        RESULT_VARIABLE differ)
    if(differ)
        message(FATAL_ERROR
            "${model} differs between PEARL_THREADS=1 and =4")
    endif()
    message("${model}: identical at 1 and 4 threads")
endforeach()
file(STRINGS "${WORK_DIR}/threads1/metrics.csv" dump_lines)
list(LENGTH dump_lines count)
if(NOT count EQUAL 23)
    message(FATAL_ERROR
        "expected the header and 22 rows in metrics.csv, got ${count} lines")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/threads1/metrics.csv" "${WORK_DIR}/threads4/metrics.csv"
    RESULT_VARIABLE differ)
if(differ)
    message(FATAL_ERROR
        "metrics.csv differs between PEARL_THREADS=1 and =4")
endif()
message("metrics.csv: identical at 1 and 4 threads")
