// The sweep supervisor: the one runner every configuration of a harness
// sweep goes through (altis_run and the fig sweeps alike). run() does, in
// order: journal replay, circuit-breaker admission, a per-configuration
// deadline scope, the retry loop around the caller's attempt body, the
// fsync'd journal append, and the configuration's timeline marks (one per
// retry, one per degraded end). Callers pass only what one attempt does.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "resilience/breaker.hpp"
#include "resilience/cancel.hpp"
#include "resilience/journal.hpp"
#include "resilience/options.hpp"

namespace altis {
class ResultDatabase;
}

namespace altis::resilience {

class supervisor {
public:
    /// Zero-length timeline marks of a sweep: one per retry, one per
    /// configuration that ended past its deadline, cancelled or
    /// quarantined. The trace harness points the sink at its session
    /// (resilience sits below the trace layer).
    enum class mark { retried, cancelled, quarantined };
    using mark_sink = std::function<void(mark, std::string name)>;

    /// Opens/reads the journal per `opts`. Throws std::runtime_error when
    /// the resume journal is unreadable or belongs to a different sweep
    /// (callers turn that into exit code 2).
    supervisor(const options& opts, const std::string& sweep,
               mark_sink marks = {});

    /// One attempt of a configuration: fills the entry's payload (value,
    /// log, results) or throws. Retryable injected faults are retried per
    /// the policy; anything else fails the configuration. On a retry the
    /// entry still shows the failed attempt: `oc.attempts` is the new
    /// attempt's number and `oc.error` the previous attempt's error.
    using attempt_fn = std::function<void(journal_entry& entry)>;
    /// Runs once after the last attempt of a live configuration, before the
    /// entry is journaled; altis_run writes its status line into `log` here.
    using settle_fn = std::function<void(journal_entry& entry)>;

    struct result {
        journal_entry entry;
        bool replayed = false;  ///< came from the resume journal, body not run
    };

    /// Runs one configuration:
    ///  1. a completed `config` in the resume journal is replayed verbatim
    ///     (feeding the breaker exactly as the original run did, so breaker
    ///     decisions evolve identically, and restoring the fault plan's
    ///     firing state when the entry carries one); a label journaled
    ///     several times replays its entries in order, one per encounter;
    ///  2. an open breaker for `breaker_key` quarantines the config without
    ///     running it;
    ///  3. otherwise `attempt` runs under the configured deadline scope and
    ///     retry policy, then `settle`.
    /// Live entries are journaled (fsync'd) before this returns, with the
    /// active fault plan's state; cancelled ones (Ctrl-C, not a deadline)
    /// are not -- an interrupted config re-runs on resume. With fail_fast
    /// the first unrecoverable failure propagates instead.
    result run(const std::string& config, const std::string& breaker_key,
               const attempt_fn& attempt, const settle_fn& settle = {});

    /// A configuration that does not exist (variant/device mismatch, known
    /// crash): never run, journaled or fed to the breaker. The checks are
    /// deterministic, so a resumed sweep recomputes them identically.
    [[nodiscard]] static journal_entry skipped(const std::string& config,
                                               std::string reason);

    /// The one rule for the outcome log: records `e` into `db` when it
    /// carries information -- a fault plan is active, a supervisor feature
    /// beyond breaker and retries is on, or the configuration failed or
    /// needed retries. Clean runs keep their historical report.
    void record(ResultDatabase& db, const journal_entry& e) const;

    /// Terminal statuses that count against the breaker.
    [[nodiscard]] static bool hard_failure(outcome::status st) {
        return st == outcome::status::failed ||
               st == outcome::status::deadline;
    }

    [[nodiscard]] const options& opts() const { return opts_; }
    [[nodiscard]] breaker& circuit() { return breaker_; }
    /// Path entries are being appended to (empty when not journaling).
    [[nodiscard]] std::string journal_path() const {
        return writer_ ? writer_->path() : std::string();
    }
    [[nodiscard]] std::size_t replayable() const { return replay_.size(); }

private:
    void attempt_loop(journal_entry& e, const attempt_fn& attempt);
    void emit(mark m, std::string name) const;

    options opts_;
    mark_sink marks_;
    breaker breaker_;
    std::optional<journal_writer> writer_;
    bool writer_appends_ = false;  ///< writer continues the resume journal
    /// Resume entries not yet replayed; a repeated label's entries keep
    /// their journal order (multimap inserts equal keys at the back).
    std::multimap<std::string, journal_entry> replay_;
};

}  // namespace altis::resilience
