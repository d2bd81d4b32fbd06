# Test-time script behind the tools.exma_index_bad_number CTest entry.
#
# Runs EXE with ARGS (a ;-list) and requires that it exits 2 with its
# usage text on stderr: a CLI given a malformed flag value must reject
# it, not die on an uncaught exception.
#
# Usage:
#   cmake -DEXE=<binary> "-DARGS=<arg;arg;...>" -P check_usage_exit.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT EXE)
    message(FATAL_ERROR "check_usage_exit.cmake needs -DEXE=")
endif()

execute_process(COMMAND "${EXE}" ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${EXE} ${ARGS}: want exit 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${EXE} ${ARGS}: no usage text on stderr:\n${err}")
endif()
message(STATUS "${EXE} ${ARGS}: exit 2 with usage")
