// Regenerates Figure 4: speedup of the "FPGA Optimized" over the "FPGA
// Baseline" implementations on the Stratix 10, sizes 1-3, plus geometric
// means. (DWT2D has no optimized FPGA version -- Sec. 5.4 -- and is absent,
// exactly as in the figure.)
//
// The sweep is resilient: under an --inject fault plan, configurations that
// fault are retried per policy and degraded cells print as FAILED while the
// rest of the figure still regenerates (outcome log at the end).
#include <iostream>

#include "apps/common/suite.hpp"
#include "core/report.hpp"
#include "core/result_database.hpp"
#include "trace/harness.hpp"

int main(int argc, char** argv) {
    altis::trace::cli_harness trace_harness("fig4_fpga_opt");
    if (const int rc = trace_harness.parse(argc, argv); rc >= 0) return rc;

    using altis::Table;
    using altis::Variant;
    namespace bench = altis::bench;

    const auto& policy = trace_harness.flags().fault.policy;
    const bool fail_fast = trace_harness.flags().fault.fail_fast;
    // Every outcome is logged when injecting or supervising beyond the
    // breaker; a clean run keeps the historical report.
    const bool log_all = trace_harness.flags().fault.enabled() ||
                         trace_harness.flags().resilience.enabled();
    altis::resilience::supervisor& sup = trace_harness.supervisor();

    std::cout << "Figure 4: Speedup of FPGA Optimized over FPGA Baseline on "
                 "Stratix 10\n\n";
    Table t({"Application", "Size 1", "Size 2", "Size 3", "Paper S1",
             "Paper S2", "Paper S3"});
    altis::ResultDatabase db;
    try {
        for (const auto& e : bench::suite()) {
            if (!e.in_fig45) continue;
            std::vector<std::string> row{e.label};
            for (int size : {1, 2, 3}) {
                const auto base = bench::run_config(e, Variant::fpga_base,
                                                    "stratix_10", size, policy,
                                                    fail_fast, sup);
                const auto opt = bench::run_config(e, Variant::fpga_opt,
                                                   "stratix_10", size, policy,
                                                   fail_fast, sup);
                bench::record_config_outcome(
                    db, bench::config_label(e, Variant::fpga_base, "stratix_10", size),
                    base, log_all);
                bench::record_config_outcome(
                    db, bench::config_label(e, Variant::fpga_opt, "stratix_10", size),
                    opt, log_all);
                if (base.oc.st == altis::fault::outcome::status::failed ||
                    opt.oc.st == altis::fault::outcome::status::failed) {
                    row.push_back("FAILED");
                    continue;
                }
                // Other degraded terminal states (deadline, cancelled,
                // quarantined) only occur under the supervisor; name them
                // instead of conflating them with nonexistent "n/a" cells.
                if (!base.oc.succeeded() && !base.skipped) {
                    row.push_back(base.oc.label());
                    continue;
                }
                if (!opt.oc.succeeded() && !opt.skipped) {
                    row.push_back(opt.oc.label());
                    continue;
                }
                if (!base.ms || !opt.ms) {
                    row.push_back("n/a");
                    continue;
                }
                const double s = *base.ms / *opt.ms;
                db.add_result("speedup_size" + std::to_string(size), e.label,
                              "x", s);
                row.push_back(Table::num(s, 1));
            }
            for (int i = 0; i < 3; ++i)
                row.push_back(
                    Table::num(e.paper_fig4[static_cast<std::size_t>(i)], 1));
            t.add_row(std::move(row));
        }
    } catch (const std::exception& e) {
        std::cerr << "aborting (--fail-fast): " << e.what() << "\n";
        return 1;
    }
    t.print(std::cout);
    std::cout << "geomean: size1 " << Table::num(db.geomean("speedup_size1"), 1)
              << ", size2 " << Table::num(db.geomean("speedup_size2"), 1)
              << ", size3 " << Table::num(db.geomean("speedup_size3"), 1)
              << "   (paper: 10.7 / 20.7 / 35.6)\n";
    altis::print_outcomes(db, std::cout);
    if (const int rc = trace_harness.finish(); rc != 0) return rc;
    if (altis::resilience::interrupted())
        return 128 + altis::resilience::interrupt_signal();
    return db.all_outcomes_ok() ? 0 : 1;
}
