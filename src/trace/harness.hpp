// One-stop CLI harness for the harness binaries (altis_run and the bench
// fig*/table* regenerators): owns the OptionParser with the shared flag
// table registered, the trace session and every subsystem the flags switch
// on, so a bench main() is three lines of wiring:
//
//   altis::trace::cli_harness h("fig3_kmeans_pipes");
//   if (int rc = h.parse(argc, argv); rc >= 0) return rc;
//   ... existing body (simulate_region / queues pick the session up) ...
//   return h.finish();
//
// A binary with flags of its own registers them on parser() before parse().
//
// The shared flag table is one row per flag (name, env var, default, help,
// kind, range; see core/option_parser.hpp), grouped in sections. Every
// value resolves argv -> env -> default, and one check rejects a bad value
// naming where it came from. README's "Command-line flags" lists the rows.
#pragma once

#include <optional>
#include <string>

#include "analyze/options.hpp"
#include "analyze/recorder.hpp"
#include "core/option_parser.hpp"
#include "fault/inject.hpp"
#include "fault/options.hpp"
#include "metrics/options.hpp"
#include "metrics/session.hpp"
#include "resilience/options.hpp"
#include "resilience/supervisor.hpp"
#include "trace/options.hpp"
#include "trace/session.hpp"

namespace altis::trace {

/// Sections of the shared flag table; a binary may register a subset.
enum flag_section : unsigned {
    trace_flags = 1U << 0U,       ///< --trace, --profile
    fault_flags = 1U << 1U,       ///< --inject
    sanitize_flags = 1U << 2U,    ///< --sanitize, --sanitize-json, ...
    metrics_flags = 1U << 3U,     ///< --metrics, --metrics-prom, ...
    resilience_flags = 1U << 4U,  ///< --retries, --deadline-ms, --journal, ...
    all_flags = (1U << 5U) - 1U,
};

/// Every subsystem's settings, as the shared flags set them.
struct harness_options {
    trace::options trace;
    fault::options fault;
    analyze::options sanitize;
    metrics::options metrics;
    resilience::options resilience;
};

/// Registers the shared table's rows of `sections` on `p` (before parse()).
void add_harness_flags(OptionParser& p, unsigned sections = all_flags);

/// Fills the settings from a parsed `p` that registered `sections`; the
/// other sections keep their defaults.
[[nodiscard]] harness_options read_harness_flags(const OptionParser& p,
                                                 unsigned sections = all_flags);

class cli_harness {
public:
    /// Registers the whole shared flag table on parser().
    explicit cli_harness(std::string name);

    /// Parses argv (handling --help, unknown options and bad values: exit
    /// code 2) and switches on what the flags ask for, for the binary's
    /// lifetime: the sweep supervisor (always; its retry loop and circuit
    /// breaker run on every sweep, its retry and degraded marks land on the
    /// trace session, and --deadline-ms/--journal/--resume add the rest --
    /// validating a --resume journal against the harness name and installing
    /// SIGINT/SIGTERM cooperative cancellation), the sanitizer recorder, the
    /// compiled fault plan (a malformed spec is exit code 2), a metrics
    /// session and the current trace session (only with --trace/--profile).
    /// Returns a process exit code when main should return immediately, -1
    /// to continue.
    [[nodiscard]] int parse(int argc, char** argv);

    /// Runs the sanitizer, then stops metrics (so its series merge into the
    /// trace as counter tracks), then exports the trace/profile and metrics
    /// artifacts that were requested. Returns the process exit code: 2 when
    /// an artifact could not be written (or the sanitize baseline read), else
    /// 1 when --sanitize=error found problems, else 0.
    [[nodiscard]] int finish();

    [[nodiscard]] OptionParser& parser() { return opts_; }
    [[nodiscard]] session& trace_session() { return session_; }
    [[nodiscard]] const harness_options& flags() const { return flags_; }
    /// The sweep supervisor; valid once parse() returned -1.
    [[nodiscard]] resilience::supervisor& supervisor() { return *supervisor_; }

private:
    OptionParser opts_;
    harness_options flags_;
    std::optional<resilience::supervisor> supervisor_;
    std::optional<fault::plan> plan_;
    std::optional<fault::scope> fault_scope_;
    std::optional<analyze::recorder> recorder_;
    std::optional<analyze::recorder::scope> sanitize_scope_;
    std::optional<metrics::session> msession_;
    session session_;
    std::optional<session::scope> scope_;
};

}  // namespace altis::trace
