// Sweep-supervisor settings of a harness run, filled from the shared flag
// table (--fail-fast, --retries, --retry-backoff-ms,
// --deadline-ms/$ALTIS_DEADLINE_MS, --journal, --resume, --breaker-threshold,
// --breaker-cooldown; see trace/harness.hpp and README "Command-line flags").
#pragma once

#include <string>

#include "resilience/breaker.hpp"

namespace altis::resilience {

/// Bounded retry with exponential backoff for retryable injected faults.
/// Backoff is accounted, not slept: the suite runs on a simulated clock, and
/// a deterministic backoff total keeps "same seed, same report" byte-for-byte
/// true.
struct retry_policy {
    int max_attempts = 3;           ///< total attempts including the first
    double backoff_base_ms = 25.0;  ///< backoff before the first retry
    double backoff_multiplier = 2.0;

    /// Backoff charged before retry number `retry` (0-based).
    [[nodiscard]] double backoff_ms(int retry) const;
};

struct options {
    double deadline_ms = 0.0;  ///< 0: no deadline
    std::string journal_path;  ///< empty: no journal
    std::string resume_path;   ///< empty: fresh run
    breaker_policy breaker;
    retry_policy retry;
    /// Rethrow the first unrecoverable failure instead of recording it.
    bool fail_fast = false;

    /// True when any supervisor feature beyond the breaker and the retry
    /// loop, which run on every sweep, was requested (deadline, journal or
    /// resume).
    [[nodiscard]] bool enabled() const {
        return deadline_ms > 0.0 || !journal_path.empty() ||
               !resume_path.empty();
    }
};

}  // namespace altis::resilience
