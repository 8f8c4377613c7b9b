# Runs EXE with the budget "abc"; fails unless it prints a usage line
# and exits non-zero.
#   cmake -DEXE=<path> -P bad_budget.cmake
execute_process(COMMAND "${EXE}" abc
    OUTPUT_VARIABLE out ERROR_VARIABLE out
    RESULT_VARIABLE rc)
message("${out}")
if(rc EQUAL 0 OR NOT out MATCHES "usage: ")
    message(FATAL_ERROR "expected a usage line and a non-zero exit, "
        "got exit ${rc}")
endif()
