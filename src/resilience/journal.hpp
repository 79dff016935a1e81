// Crash-safe checkpoint journal for the sweeps: one JSONL file, a header
// line naming the sweep, then one line per completed configuration,
// appended and fsync'd as the sweep progresses. Creation is atomic (header
// written to <path>.tmp, fsync'd, renamed), so a journal either exists
// with a valid header or not at all; a SIGKILL mid-append leaves at most
// one torn final line, which the reader tolerates.
//
// Resume contract (--resume <journal>): completed configurations are
// replayed verbatim -- same status, attempts, backoff, value and captured
// log text, and under a fault plan the plan's firing state -- so a resumed
// sweep's final report is byte-identical to an uninterrupted one. Doubles
// round-trip exactly (std::to_chars shortest form), which is what makes
// byte-identity possible at all.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace altis::resilience {

/// How one configuration ended: the retry loop's verdict, recorded into
/// ResultDatabase outcomes and the journal.
struct outcome {
    enum class status {
        ok,
        failed,
        skipped,
        /// Cancelled because the configuration overran its --deadline-ms
        /// budget; non-retryable (the token stays cancelled for the rest
        /// of the configuration's scope, so another attempt cannot help).
        deadline,
        /// Cancelled from outside the configuration (SIGINT/SIGTERM or a
        /// manual cancel); the sweep is being torn down.
        cancelled,
        /// Skipped by an open circuit breaker instead of re-burning the
        /// retry budget.
        quarantined,
    };

    status st = status::ok;
    int attempts = 1;
    double backoff_ms = 0.0;  ///< total backoff accounted across retries
    std::string error;        ///< what() of the last failure; empty when ok

    [[nodiscard]] bool succeeded() const { return st == status::ok; }
    [[nodiscard]] bool retried() const { return succeeded() && attempts > 1; }
    /// "ok" | "retried" | "failed" | "skipped" | "deadline" | "cancelled" |
    /// "quarantined" -- the status string of ResultDatabase outcomes and of
    /// the journal's "status" field.
    [[nodiscard]] const char* label() const;
};

/// One metric series captured from a configuration's ResultDatabase (used
/// by altis_run, whose report aggregates per-trial values; the fig sweeps
/// only need `value`).
struct journal_series {
    std::string test;
    std::string atts;
    std::string unit;
    std::vector<double> values;
};

/// One configuration: how it ended plus everything its report needs, so a
/// replay reproduces it without running it.
struct journal_entry {
    std::string config;
    outcome oc;
    /// The configuration's scalar result (simulated ms or a speedup),
    /// absent for failed/quarantined entries.
    std::optional<double> value;
    /// Exact stdout lines the configuration printed (altis_run's progress
    /// lines), replayed verbatim on resume.
    std::string log;
    std::vector<journal_series> results;
    /// The active fault plan's firing state after this configuration
    /// (fault::plan::state()); empty without a plan. Replay restores it, so
    /// the configurations after a resume point see the same injections.
    std::string plan;
};

/// Serialize one entry as a single JSON line (no trailing newline).
[[nodiscard]] std::string to_line(const journal_entry& e);
/// Parse one journal line; nullopt for torn/garbage lines.
[[nodiscard]] std::optional<journal_entry> parse_line(const std::string& line);

/// Append-only fsync'd writer. Throws std::runtime_error when the path
/// cannot be created/opened.
class journal_writer {
public:
    /// `append` continues an existing journal (resume); otherwise the file
    /// is created fresh via temp+rename with a header naming `sweep`.
    journal_writer(std::string path, const std::string& sweep, bool append);
    ~journal_writer();
    journal_writer(const journal_writer&) = delete;
    journal_writer& operator=(const journal_writer&) = delete;

    /// Write + flush + fsync one entry; a crash after append() returns can
    /// lose nothing, a crash during it loses only this line.
    void append(const journal_entry& e);

    [[nodiscard]] const std::string& path() const { return path_; }

private:
    void write_line(const std::string& line);

    std::string path_;
    int fd_ = -1;
};

/// Parsed journal: the sweep it belongs to plus the completed entries in
/// append order (every entry of a repeated label is kept; a torn final
/// line is dropped).
struct journal_file {
    std::string sweep;
    std::vector<journal_entry> entries;
};

/// Reads `path`. Returns nullopt when the file does not exist (resume of a
/// never-started sweep degrades to a fresh run); throws std::runtime_error
/// on an unreadable file or a header naming a different sweep than
/// `expected_sweep` (resuming fig4 from a fig2 journal is a usage error).
[[nodiscard]] std::optional<journal_file> read_journal(
    const std::string& path, const std::string& expected_sweep);

}  // namespace altis::resilience
