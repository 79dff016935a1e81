// Wall-clock metrics settings and teardown shared by every harness binary;
// the settings come from the shared flag table (trace/harness.hpp):
//
//   --metrics              collect runtime telemetry and print a summary of
//                          the non-zero metrics after the run; defaults on
//                          when $ALTIS_METRICS is set
//   --metrics-prom <file>  write the Prometheus text exposition (implies
//                          --metrics)
//   --metrics-json <file>  write the structured JSON snapshot + sampler
//                          series (implies --metrics)
//
// The sampler period comes from $ALTIS_METRICS_HZ (default 100 Hz).
#pragma once

#include <iosfwd>
#include <string>

#include "metrics/session.hpp"

namespace altis::metrics {

struct options {
    bool metrics = false;
    std::string prom_path;  ///< empty: no Prometheus file
    std::string json_path;  ///< empty: no JSON file

    [[nodiscard]] bool enabled() const {
        return metrics || !prom_path.empty() || !json_path.empty();
    }
};

/// Stops the session, writes the requested artifacts and prints the summary
/// (for bare --metrics). Returns false (after a message on `err`) when a
/// file could not be written.
bool finish_metrics(session& s, const options& opt, std::ostream& out,
                    std::ostream& err);

}  // namespace altis::metrics
