# Circuit-breaker gate (docs/ROBUSTNESS.md): the breaker flags act on every
# sweep, not only when another supervisor flag is given. A fig4 sweep whose
# every launch faults, with --breaker-threshold 1, must quarantine
# configurations, and adding a far-off --deadline-ms must not change which:
# the deadline never fires, so both reports name the same quarantined cells.
#
# Usage: cmake -DBIN=<fig4 binary> -P breaker_check.cmake

if(NOT DEFINED BIN)
    message(FATAL_ERROR "breaker_check.cmake requires -DBIN=...")
endif()

set(args --inject "launch@1x100000" --breaker-threshold 1
    --breaker-cooldown 5)
execute_process(COMMAND "${BIN}" ${args}
    OUTPUT_VARIABLE breaker_only ERROR_VARIABLE err RESULT_VARIABLE rc)
execute_process(COMMAND "${BIN}" ${args} --deadline-ms 600000
    OUTPUT_VARIABLE with_deadline ERROR_VARIABLE err2 RESULT_VARIABLE rc2)

string(REGEX MATCHALL "\\[quarantined\\]" hits "${breaker_only}")
list(LENGTH hits quarantined)
if(quarantined EQUAL 0)
    message(FATAL_ERROR "--breaker-threshold 1 quarantined nothing (exit "
        "${rc}):\n${breaker_only}${err}")
endif()
string(REGEX MATCHALL "\\[quarantined\\]" hits2 "${with_deadline}")
list(LENGTH hits2 quarantined2)
if(NOT quarantined EQUAL quarantined2)
    message(FATAL_ERROR "the breaker quarantined ${quarantined} configurations "
        "alone but ${quarantined2} with --deadline-ms")
endif()
