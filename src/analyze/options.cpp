#include "analyze/options.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "analyze/sanitize.hpp"
#include "analyze/sarif.hpp"

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
    if (!opt.json_path.empty()) {
        std::ofstream f(opt.json_path);
        if (!f) {
            err << "error: cannot write " << opt.json_path << "\n";
            return 2;
        }
        r.render_json(f);
    }
    if (!opt.sarif_path.empty()) {
        std::ofstream f(opt.sarif_path);
        if (!f) {
            err << "error: cannot write " << opt.sarif_path << "\n";
            return 2;
        }
        render_sarif(r, f);
    }
    return opt.lv == level::error && r.count_at_least(severity::warning) > 0
               ? 1
               : 0;
}

}  // namespace altis::analyze
