// Sweep-supervisor settings of a harness run, filled from the shared flag
// table (--deadline-ms/$ALTIS_DEADLINE_MS, --journal, --resume,
// --breaker-threshold, --breaker-cooldown; see trace/harness.hpp and README
// "Command-line flags").
#pragma once

#include <string>

#include "resilience/breaker.hpp"

namespace altis::resilience {

struct options {
    double deadline_ms = 0.0;  ///< 0: no deadline
    std::string journal_path;  ///< empty: no journal
    std::string resume_path;   ///< empty: fresh run
    breaker_policy breaker;

    /// True when any supervisor feature beyond the breaker, which is armed
    /// on every sweep, was requested (deadline, journal or resume).
    [[nodiscard]] bool enabled() const {
        return deadline_ms > 0.0 || !journal_path.empty() ||
               !resume_path.empty();
    }
};

}  // namespace altis::resilience
