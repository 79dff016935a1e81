# Circuit-breaker gate (docs/ROBUSTNESS.md): the breaker flags act on every
# sweep, not only when another supervisor flag is given.
#
# With BIN (fig4_fpga_opt): a sweep whose every launch faults, with
# --breaker-threshold 1, must quarantine configurations, and adding a
# far-off --deadline-ms must not change which: the deadline never fires, so
# both reports name the same quarantined cells.
#
# With ALTIS_RUN: altis_run keys the breaker on <app>/<variant>/<device> and
# visits each named app once, so only an app named repeatedly can trip it:
# `kmeans nw` quarantines nothing, `kmeans kmeans kmeans` the second and
# third encounter.
#
# Usage: cmake [-DBIN=<fig4 binary>] [-DALTIS_RUN=<altis_run binary>]
#              -P breaker_check.cmake

if(NOT DEFINED BIN AND NOT DEFINED ALTIS_RUN)
    message(FATAL_ERROR
        "breaker_check.cmake requires -DBIN=... or -DALTIS_RUN=...")
endif()

if(DEFINED BIN)
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
        message(FATAL_ERROR "the breaker quarantined ${quarantined} "
            "configurations alone but ${quarantined2} with --deadline-ms")
    endif()
endif()

if(DEFINED ALTIS_RUN)
    foreach(apps_want "kmeans nw:0" "kmeans kmeans kmeans:2")
        string(REPLACE ":" ";" pair "${apps_want}")
        list(GET pair 0 apps)
        list(GET pair 1 want)
        separate_arguments(apps UNIX_COMMAND "${apps}")
        execute_process(COMMAND "${ALTIS_RUN}" ${apps}
            --inject "launch@1x1000" --breaker-threshold 1
            OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
        string(REGEX MATCHALL "\\[quarantined\\]" hits "${out}")
        list(LENGTH hits got)
        if(NOT got EQUAL want)
            message(FATAL_ERROR "altis_run ${apps} quarantined ${got} "
                "configurations, expected ${want} (exit ${rc}):\n${out}${err}")
        endif()
    endforeach()
endif()
