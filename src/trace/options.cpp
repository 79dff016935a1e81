#include "trace/options.hpp"

#include <fstream>
#include <ostream>

#include "trace/chrome_export.hpp"
#include "trace/profile.hpp"

namespace altis::trace {

bool finish_session(session& s, const options& opt, double end_ns,
                    std::ostream& out, std::ostream& err,
                    const altis::metrics::session* metrics) {
    while (s.open_regions() > 0) s.end_region(end_ns);

    bool ok = true;
    if (!opt.trace_path.empty()) {
        std::ofstream f(opt.trace_path);
        if (!f) {
            err << "trace: cannot open " << opt.trace_path << " for writing\n";
            ok = false;
        } else {
            write_chrome_json(s, f, metrics);
            f.flush();
            if (!f) {
                err << "trace: failed writing " << opt.trace_path << "\n";
                ok = false;
            } else {
                out << "trace: wrote " << s.spans().size() << " spans to "
                    << opt.trace_path << "\n";
            }
        }
    }
    if (opt.profile) {
        const profile_report p = build_profile(s);
        out << "\n";
        render_profile(p, out);
        if (!opt.trace_path.empty()) {
            const std::string path = opt.trace_path + ".profile.json";
            std::ofstream f(path);
            if (!f) {
                err << "trace: cannot open " << path << " for writing\n";
                ok = false;
            } else {
                write_profile_json(p, f);
                f.flush();
                if (!f) {
                    err << "trace: failed writing " << path << "\n";
                    ok = false;
                } else {
                    out << "trace: wrote profile to " << path << "\n";
                }
            }
        }
    }
    return ok;
}

}  // namespace altis::trace
