#include "analyze/options.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "analyze/sanitize.hpp"
#include "analyze/sarif.hpp"
#include "core/artifact.hpp"

namespace altis::analyze {

int finish(const recorder& rec, const options& opt, std::ostream& out,
           std::ostream& err, const span_sink& sink) {
    report r = run_all(rec);
    if (!opt.baseline_path.empty()) {
        std::ifstream bf(opt.baseline_path);
        if (!bf) {
            err << "error: cannot read " << opt.baseline_path << "\n";
            return 2;
        }
        std::ostringstream text;
        text << bf.rdbuf();
        r = apply_baseline(r, parse_baseline(text.str()));
    }
    r.render_text(out);
    if (sink)
        for (const finding& f : r.findings()) sink(f);
    // Every requested file is attempted; any failure is exit code 2.
    bool written = true;
    if (!opt.json_path.empty())
        written &= write_artifact(
            opt.json_path, "sanitize",
            [&](std::ostream& f) { r.render_json(f); }, out, err);
    if (!opt.sarif_path.empty())
        written &= write_artifact(
            opt.sarif_path, "sanitize",
            [&](std::ostream& f) { render_sarif(r, f); }, out, err);
    if (!written) return 2;
    return opt.lv == level::error && r.count_at_least(severity::warning) > 0
               ? 1
               : 0;
}

}  // namespace altis::analyze
