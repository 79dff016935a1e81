# Artifact-failure gate (docs/OBSERVABILITY.md): every requested run
# artifact is written through one checked path, so an output file that
# cannot be written -- here /dev/full, which opens but refuses every byte --
# must make `altis_run` exit 2 with exactly one stderr line naming the path,
# whichever flag asked for it.
#
# Usage: cmake -DBIN=<altis_run binary> -P artifact_write_errors.cmake

if(NOT DEFINED BIN)
    message(FATAL_ERROR "artifact_write_errors.cmake requires -DBIN=...")
endif()

set(path /dev/full)
foreach(flag sanitize-json sanitize-sarif trace metrics-json metrics-prom)
    set(args "--${flag}" "${path}")
    if(flag MATCHES "^sanitize")
        list(PREPEND args --sanitize warn)
    endif()
    execute_process(
        COMMAND "${BIN}" where --passes 1 ${args}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc STREQUAL "2")
        message(FATAL_ERROR
            "--${flag} ${path}: expected exit code 2, got '${rc}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
    endif()
    string(REGEX MATCHALL "\n" newlines "${err}")
    list(LENGTH newlines lines)
    if(NOT lines EQUAL 1)
        message(FATAL_ERROR
            "--${flag} ${path}: expected one stderr line, got ${lines}:\n${err}")
    endif()
    string(FIND "${err}" "${path}" named)
    if(named EQUAL -1)
        message(FATAL_ERROR
            "--${flag} ${path}: the error does not name the path:\n${err}")
    endif()
endforeach()
