# Degraded-span gate (docs/OBSERVABILITY.md, docs/ROBUSTNESS.md): a traced
# altis_run carries the supervisor's timeline marks. A configuration that
# retried has one `retried`-status span per retry, named after the retry it
# marks; a quarantined one has its `quarantined`-status span.
#
# Usage: cmake -DBIN=<altis_run binary> -DWORK=<scratch dir>
#              -P spans_check.cmake

if(NOT DEFINED BIN OR NOT DEFINED WORK)
    message(FATAL_ERROR "spans_check.cmake requires -DBIN=... and -DWORK=...")
endif()
file(MAKE_DIRECTORY "${WORK}")

# Exported trace events carrying `status` (one event per line).
function(status_events out_var trace status)
    file(STRINGS "${trace}" lines REGEX "\"status\": \"${status}\"")
    set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

# alloc:buffer@1 fails kmeans's first attempt: one retry.
set(trace "${WORK}/retried.json")
file(REMOVE "${trace}")
execute_process(
    COMMAND "${BIN}" kmeans --variant fpga_opt --device stratix_10
        --inject "alloc:buffer@1" --trace "${trace}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "retried run exited with ${rc}:\n${out}${err}")
endif()
string(REGEX MATCHALL "attempt [0-9]+ failed" retries "${out}")
list(LENGTH retries want)
status_events(spans "${trace}" retried)
list(LENGTH spans got)
if(NOT want EQUAL 1 OR NOT got EQUAL want)
    message(FATAL_ERROR "${want} retries printed but ${got} retried spans "
        "traced:\n${out}${err}")
endif()
set(config "kmeans/fpga_opt/stratix_10/size1")
if(NOT spans MATCHES "\"name\": \"retry 1: ${config} \\(backoff ")
    message(FATAL_ERROR "retried span does not name its retry: ${spans}")
endif()

# launch faults on every kernel with a breaker threshold of 1: the first
# kmeans fails, the next two encounters of its key are quarantined.
set(trace "${WORK}/quarantined.json")
file(REMOVE "${trace}")
execute_process(
    COMMAND "${BIN}" kmeans kmeans kmeans --inject "launch@1x1000"
        --breaker-threshold 1 --trace "${trace}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
status_events(spans "${trace}" quarantined)
list(LENGTH spans got)
if(NOT got EQUAL 2)
    message(FATAL_ERROR "expected 2 quarantined spans, got ${got} (exit "
        "${rc}):\n${out}${err}")
endif()
set(config "kmeans/sycl_opt/xeon_6128/size1")
if(NOT spans MATCHES "\"name\": \"quarantined: ${config}: circuit open")
    message(FATAL_ERROR "quarantined span does not name its config: ${spans}")
endif()
