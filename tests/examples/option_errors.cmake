# Option-hardening gate (README "Command-line flags"): a bad value for a
# shared flag must stop `altis_run` before any work with exit code 2 and
# exactly one stderr line naming the flag -- not an abort, not a run that
# fails later as a configuration, not a run that "succeeds" with no results.
#
# Usage: cmake -DBIN=<altis_run binary> -P option_errors.cmake

if(NOT DEFINED BIN)
    message(FATAL_ERROR "option_errors.cmake requires -DBIN=...")
endif()

# Each case is "<flag>=<value>"; the flag must appear in the error line.
set(cases "device=bogus" "deadline-ms=-5" "retries=0" "passes=0")

foreach(case IN LISTS cases)
    string(FIND "${case}" "=" eq)
    string(SUBSTRING "${case}" 0 ${eq} flag)
    math(EXPR vpos "${eq} + 1")
    string(SUBSTRING "${case}" ${vpos} -1 value)
    execute_process(
        COMMAND "${BIN}" kmeans "--${flag}" "${value}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc STREQUAL "2")
        message(FATAL_ERROR
            "--${flag} ${value}: expected exit code 2, got '${rc}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
    endif()
    string(REGEX MATCHALL "\n" newlines "${err}")
    list(LENGTH newlines lines)
    if(NOT lines EQUAL 1)
        message(FATAL_ERROR
            "--${flag} ${value}: expected one stderr line, got ${lines}:\n${err}")
    endif()
    string(FIND "${err}" "--${flag}" named)
    if(named EQUAL -1)
        message(FATAL_ERROR
            "--${flag} ${value}: the error does not name the flag:\n${err}")
    endif()
endforeach()
