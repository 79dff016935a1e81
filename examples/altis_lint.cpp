// altis_lint: the standalone front-end of altis::sanitize. Lints one
// application (or the whole suite) two ways:
//
//   1. Functional pass -- runs the app once (passes=1) with a recorder
//      installed, so every real queue submission, transfer, wait and USM
//      call lands in the command graph; the hazard and pipe passes then
//      check the actual execution (ALS-H*/ALS-P* rules).
//   2. Descriptor pass -- walks the bench suite's model descriptors for
//      sizes 1..3 on the chosen variant/device and runs the paper-derived
//      perf-lint rules over them (ALS-L* rules), without simulating.
//
//   ./examples/altis_lint all                        # lint everything
//   ./examples/altis_lint kmeans --variant fpga_opt --device stratix_10
//   ./examples/altis_lint all --sanitize error       # CI gate: exit 1 on
//                                                    # any warning-or-worse
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "apps/common/app.hpp"
#include "apps/common/suite.hpp"
#include "core/option_parser.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "trace/harness.hpp"

namespace {

// The suite's regions are named "<app>/<variant>/sizeN". A few registry
// names differ from the region prefix: both ParticleFilter flavors share
// the "particlefilter" region family, and CFD FP64 shares "cfd".
std::string region_prefix(const std::string& app) {
    if (app == "pf_naive" || app == "pf_float") return "particlefilter";
    if (app == "cfd_fp64") return "cfd";
    return app;
}

bool region_matches(const std::string& region_name, const std::string& app) {
    return region_name.rfind(region_prefix(app) + "/", 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace altis;

    OptionParser opts;
    add_standard_options(opts);
    opts.add_option("variant", "sycl_opt",
                    "cuda | sycl_base | sycl_opt | fpga_base | fpga_opt");
    opts.add_flag("functional-only", "skip the descriptor (perf-lint) pass");
    opts.add_flag("descriptors-only", "skip the functional (hazard) pass");
    constexpr unsigned sections = trace::sanitize_flags | trace::metrics_flags;
    trace::add_harness_flags(opts, sections);

    trace::harness_options flags;
    RunConfig cfg;
    try {
        if (!opts.parse(argc, argv, std::cout)) return 0;
        flags = trace::read_harness_flags(opts, sections);
        cfg = apps::read_run_config(opts);
    } catch (const OptionError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    // A lint tool always lints: --sanitize only picks warn (default, report
    // and exit 0) vs error (any warning-or-worse finding fails the run).
    analyze::options& aopts = flags.sanitize;
    if (aopts.lv == analyze::level::off) aopts.lv = analyze::level::warn;
    cfg.passes = 1;  // one pass captures the full command graph
    const perf::device_spec& dev = perf::device_by_name(cfg.device);

    apps::register_all_apps();
    auto& registry = Registry::instance();

    std::vector<std::string> targets = opts.positional();
    if (targets.empty()) {
        std::cerr << "usage: altis_lint <app|all> [options]; see --help\n";
        return 2;
    }
    const bool all = targets.size() == 1 && targets[0] == "all";
    if (all) {
        targets.clear();
        for (const auto& app : registry.apps()) targets.push_back(app.name);
    }
    for (const auto& name : targets) {
        if (registry.find(name) == nullptr) {
            std::cerr << "error: unknown application '" << name << "'\n";
            return 2;
        }
    }

    // The functional pass executes real kernels, so --metrics reports the
    // engine telemetry of the lint run like any other harness binary.
    const metrics::options& mopts = flags.metrics;
    std::optional<metrics::session> msession;
    if (mopts.enabled()) msession.emplace("altis_lint");

    analyze::recorder rec(aopts.lv);
    int failures = 0;
    {
        analyze::recorder::scope scope(rec);

        if (!opts.get_flag("descriptors-only")) {
            for (const auto& name : targets) {
                const AppInfo* app = registry.find(name);
                const bool supported =
                    std::find(app->variants.begin(), app->variants.end(),
                              cfg.variant) != app->variants.end() &&
                    apps::variant_allowed(cfg.variant, dev);
                if (!supported) {
                    std::cout << name
                              << ": skipped (variant/device unsupported)\n";
                    continue;
                }
                ResultDatabase db;
                try {
                    app->run(cfg, db);
                    std::cout << name << ": captured\n";
                } catch (const std::exception& e) {
                    // Under --sanitize error the pre-launch pipe gate throws
                    // out of the run; the findings are already recorded.
                    std::cout << name << ": FAILED -- " << e.what() << "\n";
                    ++failures;
                }
            }
        }

        if (!opts.get_flag("functional-only")) {
            for (const auto& e : bench::suite()) {
                for (int size = 1; size <= 3; ++size) {
                    if (e.crashes && e.crashes(dev, cfg.variant, size))
                        continue;
                    try {
                        const apps::timed_region r =
                            e.region(cfg.variant, dev, size);
                        const bool wanted =
                            all || std::any_of(targets.begin(), targets.end(),
                                               [&](const std::string& t) {
                                                   return region_matches(r.name,
                                                                         t);
                                               });
                        if (!wanted) continue;
                        for (const auto& k : r.all_kernels())
                            rec.record_simulated_kernel(k, dev);
                    } catch (const std::exception&) {
                        // Entries without this variant/size combination are
                        // simply absent from the descriptor pass.
                    }
                }
            }
        }
    }

    const int rc = analyze::finish(rec, aopts, std::cout, std::cerr);
    if (msession &&
        !metrics::finish_metrics(*msession, mopts, std::cout, std::cerr))
        return 2;
    if (rc == 2 || failures != 0) return rc == 2 ? 2 : 1;
    return rc;
}
