// Fault-injection and retry settings of a harness run, filled from the
// shared flag table (--inject/$ALTIS_FAULT, --fail-fast, --retries,
// --retry-backoff-ms; see trace/harness.hpp and README "Command-line flags").
#pragma once

#include <string>

#include "fault/retry.hpp"

namespace altis::fault {

struct options {
    std::string spec;  ///< empty: no injection (grammar: fault/spec.hpp)
    bool fail_fast = false;
    retry_policy policy;

    [[nodiscard]] bool enabled() const { return !spec.empty(); }
};

}  // namespace altis::fault
