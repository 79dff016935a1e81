// Fault-injection settings of a harness run, filled from the shared flag
// table (--inject/$ALTIS_FAULT; see trace/harness.hpp and README
// "Command-line flags"). Retrying what the plan injects is the sweep
// supervisor's job (resilience/options.hpp).
#pragma once

#include <string>

namespace altis::fault {

struct options {
    std::string spec;  ///< empty: no injection (grammar: fault/spec.hpp)

    [[nodiscard]] bool enabled() const { return !spec.empty(); }
};

}  // namespace altis::fault
