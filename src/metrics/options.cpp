#include "metrics/options.hpp"

#include <ostream>

#include "core/artifact.hpp"
#include "metrics/export.hpp"

namespace altis::metrics {

bool finish_metrics(session& s, const options& opt, std::ostream& out,
                    std::ostream& err) {
    s.stop();
    const snapshot snap = s.take_snapshot();

    bool ok = true;
    if (!opt.prom_path.empty())
        ok &= write_artifact(
            opt.prom_path, "metrics",
            [&](std::ostream& f) { write_prometheus(snap, f); }, out, err,
            "metrics: wrote " + std::to_string(snap.metrics.size()) +
                " metric families to " + opt.prom_path + "\n");
    if (!opt.json_path.empty())
        ok &= write_artifact(
            opt.json_path, "metrics",
            [&](std::ostream& f) { write_json(snap, s.series(), f); }, out,
            err, "metrics: wrote snapshot to " + opt.json_path + "\n");
    if (opt.prom_path.empty() && opt.json_path.empty()) {
        // Bare --metrics: a compact console summary of what actually moved.
        out << "\nwall-clock metrics (" << snap.duration_ns / 1e6 << " ms):\n";
        for (const metric_value& m : snap.metrics) {
            if (m.info.kind == instrument_kind::histogram) {
                if (m.hist.count == 0) continue;
                out << "  " << m.info.name << ": count " << m.hist.count
                    << ", sum " << m.hist.sum << ", mean "
                    << static_cast<double>(m.hist.sum) /
                           static_cast<double>(m.hist.count)
                    << "\n";
            } else {
                if (m.value == 0) continue;
                out << "  " << m.info.name << ": " << m.value << "\n";
            }
        }
    }
    return ok;
}

}  // namespace altis::metrics
