# Deterministic-resume gate (docs/ROBUSTNESS.md): run a supervised sweep to
# completion with a --journal, truncate the journal to its first few
# completed configurations (simulating a SIGKILL mid-sweep), --resume from
# the stump, and byte-compare the resumed run's full output against the
# uninterrupted run's. Replayed configurations must reproduce status,
# attempts, backoff, values and printed cells exactly -- any drift here
# means a crash-resumed campaign would silently report different numbers.
# Under a fault plan the replayed entries also restore the plan's firing
# state, so the configurations after the resume point fault exactly as
# they did in the uninterrupted run.
#
# Usage: cmake -DBIN=<sweep binary> -DWORK=<scratch dir>
#              [-DARGS="<extra args, space-separated>"] [-DINJECT=<spec>]
#              [-DENTRIES=<entries kept>] -P resume_check.cmake
# INJECT reaches both runs as $ALTIS_FAULT (a spec may contain ';').

if(NOT DEFINED BIN OR NOT DEFINED WORK)
    message(FATAL_ERROR "resume_check.cmake requires -DBIN=... and -DWORK=...")
endif()
if(NOT DEFINED ENTRIES)
    set(ENTRIES 5)
endif()
separate_arguments(extra UNIX_COMMAND "${ARGS}")
if(DEFINED INJECT)
    set(ENV{ALTIS_FAULT} "${INJECT}")  # the --inject default
endif()

file(MAKE_DIRECTORY "${WORK}")
set(full_journal "${WORK}/full.jsonl")
set(part_journal "${WORK}/partial.jsonl")
file(REMOVE "${full_journal}" "${part_journal}")

# Pass 1: uninterrupted supervised sweep, journaling every configuration.
# A clean sweep must exit 0; an injected one may legitimately exit 1
# (failed configurations), and the resumed run must then exit 1 too.
execute_process(
    COMMAND "${BIN}" ${extra} --journal "${full_journal}"
    OUTPUT_VARIABLE full_out
    ERROR_VARIABLE full_err
    RESULT_VARIABLE full_rc)
if(NOT full_rc EQUAL 0 AND NOT (DEFINED INJECT AND full_rc EQUAL 1))
    message(FATAL_ERROR
        "full run exited with ${full_rc}:\n${full_out}${full_err}")
endif()

# Truncate the journal after the header plus ENTRIES entries -- the state a
# SIGKILL mid-sweep leaves behind (the writer fsyncs per line, so a real
# crash can also leave a torn final line; the reader drops it).
file(READ "${full_journal}" content)
math(EXPR keep "${ENTRIES} + 1")
set(prefix "")
set(count 0)
while(count LESS keep)
    string(FIND "${content}" "\n" nl)
    if(nl EQUAL -1)
        message(FATAL_ERROR "journal has only ${count} lines; expected >${keep}")
    endif()
    math(EXPR nlp "${nl} + 1")
    string(SUBSTRING "${content}" 0 ${nlp} line)
    string(APPEND prefix "${line}")
    string(SUBSTRING "${content}" ${nlp} -1 content)
    math(EXPR count "${count} + 1")
endwhile()
file(WRITE "${part_journal}" "${prefix}")

# Pass 2: resume from the stump. Replayed configs come from the journal,
# the rest run live; the combined report must be byte-identical.
execute_process(
    COMMAND "${BIN}" ${extra} --resume "${part_journal}"
    OUTPUT_VARIABLE resumed_out
    ERROR_VARIABLE resumed_err
    RESULT_VARIABLE resumed_rc)
if(NOT resumed_rc EQUAL full_rc)
    message(FATAL_ERROR "resumed run exited with ${resumed_rc}, the full run "
        "with ${full_rc}:\n${resumed_out}${resumed_err}")
endif()

string(APPEND full_out "${full_err}")
string(APPEND resumed_out "${resumed_err}")
if(NOT resumed_out STREQUAL full_out)
    file(WRITE "${WORK}/full.out" "${full_out}")
    file(WRITE "${WORK}/resumed.out" "${resumed_out}")
    message(FATAL_ERROR
        "resumed sweep output differs from the uninterrupted run -- resume "
        "must be byte-identical (compare ${WORK}/full.out against "
        "${WORK}/resumed.out)")
endif()

# The resumed journal must now cover the full sweep again.
file(READ "${full_journal}" want_journal)
file(READ "${part_journal}" got_journal)
if(NOT got_journal STREQUAL want_journal)
    message(FATAL_ERROR
        "resumed journal differs from the uninterrupted journal -- a second "
        "resume from it would not replay the same sweep")
endif()
