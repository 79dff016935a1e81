#include "trace/options.hpp"

#include <ostream>

#include "core/artifact.hpp"
#include "trace/chrome_export.hpp"
#include "trace/profile.hpp"

namespace altis::trace {

bool finish_session(session& s, const options& opt, double end_ns,
                    std::ostream& out, std::ostream& err,
                    const altis::metrics::session* metrics) {
    while (s.open_regions() > 0) s.end_region(end_ns);

    bool ok = true;
    if (!opt.trace_path.empty())
        ok &= write_artifact(
            opt.trace_path, "trace",
            [&](std::ostream& f) { write_chrome_json(s, f, metrics); }, out,
            err,
            "trace: wrote " + std::to_string(s.spans().size()) +
                " spans to " + opt.trace_path + "\n");
    if (opt.profile) {
        const profile_report p = build_profile(s);
        out << "\n";
        render_profile(p, out);
        if (!opt.trace_path.empty()) {
            const std::string path = opt.trace_path + ".profile.json";
            ok &= write_artifact(
                path, "trace",
                [&](std::ostream& f) { write_profile_json(p, f); }, out, err,
                "trace: wrote profile to " + path + "\n");
        }
    }
    return ok;
}

}  // namespace altis::trace
