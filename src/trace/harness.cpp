#include "trace/harness.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace altis::trace {

namespace {

struct flag_row {
    flag_section section;
    option_row row;
};

const std::vector<flag_row>& flag_table() {
    using enum option_kind;
    static const std::vector<flag_row> table = {
        {trace_flags, {.name = "trace", .def = "", .env = "ALTIS_TRACE",
                       .help = "write Chrome trace-event JSON to <file> "
                               "(default: $ALTIS_TRACE)"}},
        {trace_flags, {.name = "profile", .def = "0", .kind = flag,
                       .help = "print the per-kernel profile after the run"}},
        {fault_flags, {.name = "inject", .def = "", .env = "ALTIS_FAULT",
                       .help = "fault-injection spec, e.g. "
                               "'alloc@2;pipe:map*@1;seed=7' "
                               "(default: $ALTIS_FAULT)"}},
        {resilience_flags, {.name = "fail-fast", .def = "0", .kind = flag,
                            .help = "abort the sweep on the first "
                                    "unrecoverable failure"}},
        {resilience_flags, {.name = "retries", .def = "3", .kind = integer,
                            .min = 1, .max = 1e6,
                            .help = "max attempts per configuration"}},
        {resilience_flags, {.name = "retry-backoff-ms", .def = "25",
                            .kind = number, .min = 0, .max = 1e9,
                            .help = "base backoff before the first retry "
                                    "(doubles per retry)"}},
        {sanitize_flags, {.name = "sanitize", .def = "", .env = "ALTIS_SANITIZE",
                          .choices = "off|warn|error",
                          .help = "lint the run's command graph: off | warn | "
                                  "error (default $ALTIS_SANITIZE)"}},
        {sanitize_flags, {.name = "sanitize-json", .def = "",
                          .help = "write sanitize findings as JSON"}},
        {sanitize_flags, {.name = "sanitize-sarif", .def = "",
                          .help = "write sanitize findings as SARIF v2.1.0"}},
        {sanitize_flags, {.name = "sanitize-baseline", .def = "",
                          .help = "baseline file: listed fingerprints demote "
                                  "to notes"}},
        {metrics_flags, {.name = "metrics", .def = "0", .kind = flag,
                         .env = "ALTIS_METRICS",
                         .help = "collect wall-clock runtime telemetry "
                                 "(default: on when $ALTIS_METRICS is set)"}},
        {metrics_flags, {.name = "metrics-prom", .def = "",
                         .help = "write Prometheus text exposition to <file> "
                                 "(implies --metrics)"}},
        {metrics_flags, {.name = "metrics-json", .def = "",
                         .help = "write metrics snapshot + series JSON to "
                                 "<file> (implies --metrics)"}},
        {resilience_flags, {.name = "deadline-ms", .def = "", .kind = number,
                            .env = "ALTIS_DEADLINE_MS", .min = 0, .max = 1e9,
                            .help = "wall-clock budget per configuration; "
                                    "overruns are cancelled and recorded as "
                                    "'deadline' (default: $ALTIS_DEADLINE_MS, "
                                    "else no deadline)"}},
        {resilience_flags, {.name = "journal", .def = "",
                            .help = "append a crash-safe JSONL checkpoint per "
                                    "completed configuration to <path>"}},
        {resilience_flags, {.name = "resume", .def = "",
                            .help = "replay completed configurations from a "
                                    "journal and continue, appending to it"}},
        {resilience_flags, {.name = "breaker-threshold", .def = "3",
                            .kind = integer, .min = 0, .max = 1e6,
                            .help = "consecutive hard failures before a "
                                    "configuration is quarantined (0 disables "
                                    "the circuit breaker)"}},
        {resilience_flags, {.name = "breaker-cooldown", .def = "2",
                            .kind = integer, .min = 0, .max = 1e6,
                            .help = "quarantined encounters before a "
                                    "half-open probe"}},
    };
    return table;
}

}  // namespace

void add_harness_flags(OptionParser& p, unsigned sections) {
    for (const flag_row& f : flag_table())
        if ((sections & f.section) != 0U) p.add(f.row);
}

harness_options read_harness_flags(const OptionParser& p, unsigned sections) {
    harness_options o;
    if ((sections & trace_flags) != 0U) {
        o.trace.trace_path = p.get_string("trace");
        o.trace.profile = p.get_flag("profile");
    }
    if ((sections & fault_flags) != 0U) o.fault.spec = p.get_string("inject");
    if ((sections & sanitize_flags) != 0U) {
        const std::string lv = p.get_string("sanitize");
        o.sanitize.lv = lv == "error"  ? analyze::level::error
                        : lv == "warn" ? analyze::level::warn
                                       : analyze::level::off;
        o.sanitize.json_path = p.get_string("sanitize-json");
        o.sanitize.sarif_path = p.get_string("sanitize-sarif");
        o.sanitize.baseline_path = p.get_string("sanitize-baseline");
        // Asking for an output file means asking for the analysis: run at
        // warn so a clean tree still yields a valid empty document.
        if (!o.sanitize.enabled() &&
            (!o.sanitize.json_path.empty() || !o.sanitize.sarif_path.empty()))
            o.sanitize.lv = analyze::level::warn;
    }
    if ((sections & metrics_flags) != 0U) {
        o.metrics.metrics = p.get_flag("metrics");
        o.metrics.prom_path = p.get_string("metrics-prom");
        o.metrics.json_path = p.get_string("metrics-json");
    }
    if ((sections & resilience_flags) != 0U) {
        o.resilience.fail_fast = p.get_flag("fail-fast");
        o.resilience.retry.max_attempts =
            static_cast<int>(p.get_int("retries"));
        o.resilience.retry.backoff_base_ms = p.get_double("retry-backoff-ms");
        if (!p.get_string("deadline-ms").empty())
            o.resilience.deadline_ms = p.get_double("deadline-ms");
        o.resilience.journal_path = p.get_string("journal");
        o.resilience.resume_path = p.get_string("resume");
        o.resilience.breaker.threshold =
            static_cast<int>(p.get_int("breaker-threshold"));
        o.resilience.breaker.cooldown =
            static_cast<int>(p.get_int("breaker-cooldown"));
    }
    return o;
}

cli_harness::cli_harness(std::string name) : session_(std::move(name)) {
    add_harness_flags(opts_);
}

int cli_harness::parse(int argc, char** argv) {
    try {
        if (!opts_.parse(argc, argv, std::cout)) return 0;  // --help
        flags_ = read_harness_flags(opts_);
    } catch (const OptionError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    try {
        // The supervisor's retry and degraded marks land on the current
        // trace session (when there is one) as zero-length spans at the end
        // of the timeline.
        using mark = resilience::supervisor::mark;
        supervisor_.emplace(
            flags_.resilience, session_.name(), [](mark m, std::string name) {
                session* s = session::current();
                if (s == nullptr) return;
                const double t = s->last_end_ns();
                span sp{span_kind::overhead, std::move(name), t, t};
                sp.status = m == mark::retried     ? span_status::retried
                            : m == mark::cancelled ? span_status::cancelled
                                                   : span_status::quarantined;
                s->record(std::move(sp));
            });
    } catch (const std::runtime_error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    if (flags_.resilience.enabled()) resilience::install_signal_cancellation();
    if (flags_.sanitize.enabled()) {
        recorder_.emplace(flags_.sanitize.lv);
        sanitize_scope_.emplace(*recorder_);
    }
    if (flags_.fault.enabled()) {
        try {
            plan_.emplace(fault::plan::parse(flags_.fault.spec));
        } catch (const fault::spec_error& e) {
            std::cerr << "error: bad --inject spec: " << e.what() << "\n";
            return 2;
        }
        fault_scope_.emplace(*plan_);
    }
    if (flags_.metrics.enabled()) msession_.emplace(session_.name());
    // Only install the session when asked to: an inactive run collects no
    // spans and behaves exactly as before the trace layer existed.
    if (flags_.trace.enabled()) scope_.emplace(session_);
    return -1;
}

int cli_harness::finish() {
    int sanitize_rc = 0;
    if (recorder_) {
        sanitize_scope_.reset();
        // Findings land on the trace (when one is active) as zero-length
        // failed spans at the end of the timeline, so exported timelines
        // show what the sanitizer objected to.
        analyze::span_sink sink;
        if (flags_.trace.enabled()) {
            sink = [this](const analyze::finding& f) {
                const double t = session_.last_end_ns();
                span s;
                s.name = "sanitize " + f.rule + ": " + f.message;
                s.start_ns = t;
                s.end_ns = t;
                s.status = span_status::failed;
                session_.record(std::move(s));
            };
        }
        sanitize_rc = analyze::finish(*recorder_, flags_.sanitize, std::cout,
                                      std::cerr, sink);
    }
    // Stop metrics before the trace export so the finished sampled series
    // can merge into the Perfetto file as counter tracks.
    if (msession_) msession_->stop();
    int trace_rc = 0;
    if (flags_.trace.enabled()) {
        scope_.reset();
        trace_rc = finish_session(session_, flags_.trace,
                                  session_.last_end_ns(), std::cout, std::cerr,
                                  msession_ ? &*msession_ : nullptr)
                       ? 0
                       : 2;
    }
    int metrics_rc = 0;
    if (msession_)
        metrics_rc = metrics::finish_metrics(*msession_, flags_.metrics,
                                             std::cout, std::cerr)
                         ? 0
                         : 2;
    return std::max({sanitize_rc, trace_rc, metrics_rc});
}

}  // namespace altis::trace
