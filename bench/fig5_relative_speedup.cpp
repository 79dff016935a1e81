// Regenerates Figure 5: relative speedup over the Xeon CPU achieved on
// {RTX 2080, A100, Max 1100} GPUs (optimized SYCL) and {Stratix 10, Agilex}
// FPGAs (optimized FPGA designs), per application and input size. Where with
// size 3 on Agilex crashed in the paper and is reported as "crash" here.
//
// The sweep is resilient: under an --inject fault plan each configuration is
// retried per policy; degraded cells print as FAILED (vs "crash" for the
// paper's known-nonexistent configs) and the rest of the figure still
// regenerates, with the outcome log appended.
#include <iostream>

#include "apps/common/suite.hpp"
#include "core/report.hpp"
#include "core/result_database.hpp"
#include "trace/harness.hpp"

int main(int argc, char** argv) {
    altis::trace::cli_harness trace_harness("fig5_relative_speedup");
    if (const int rc = trace_harness.parse(argc, argv); rc >= 0) return rc;

    using altis::Table;
    using altis::Variant;
    namespace bench = altis::bench;
    namespace perf = altis::perf;
    namespace fault = altis::fault;

    const auto& policy = trace_harness.flags().fault.policy;
    const bool fail_fast = trace_harness.flags().fault.fail_fast;
    const bool log_all = trace_harness.flags().fault.enabled() ||
                         trace_harness.flags().resilience.enabled();
    altis::resilience::supervisor& sup = trace_harness.supervisor();

    std::cout << "Figure 5: Relative speedup over the Xeon CPU\n";

    altis::ResultDatabase geo;
    try {
        for (int size : {1, 2, 3}) {
            std::cout << "\n== Size " << size << " ==\n";
            Table t({"Application", "RTX 2080", "A100", "Max 1100",
                     "Stratix 10", "Agilex", "paper(RTX/A100/Max/S10/Agx)"});
            for (const auto& e : bench::suite()) {
                if (!e.in_fig45) continue;
                const auto cpu = bench::run_config(e, Variant::sycl_opt,
                                                   "xeon_6128", size, policy,
                                                   fail_fast, sup);
                bench::record_config_outcome(
                    geo,
                    bench::config_label(e, Variant::sycl_opt, "xeon_6128", size),
                    cpu, log_all);
                std::vector<std::string> row{e.label};
                for (const auto& dev_name : bench::fig5_devices()) {
                    const Variant v = perf::device_by_name(dev_name).is_fpga()
                                          ? Variant::fpga_opt
                                          : Variant::sycl_opt;
                    const auto co = bench::run_config(e, v, dev_name, size,
                                                      policy, fail_fast, sup);
                    bench::record_config_outcome(
                        geo, bench::config_label(e, v, dev_name, size), co,
                        log_all);
                    const std::string series = "speedup_" + dev_name +
                                               "_size" + std::to_string(size);
                    const bool failed =
                        co.oc.st == fault::outcome::status::failed ||
                        cpu.oc.st == fault::outcome::status::failed;
                    const bool degraded =
                        (!co.oc.succeeded() && !co.skipped) ||
                        (!cpu.oc.succeeded() && !cpu.skipped);
                    if (failed) {
                        row.push_back("FAILED");
                        geo.add_failure(series, e.label, "x");
                    } else if (degraded) {
                        // Supervisor-only terminal states: name the status
                        // (deadline/cancelled/quarantined) instead of
                        // conflating it with the paper's known crashes.
                        row.push_back((!co.oc.succeeded() && !co.skipped)
                                          ? co.oc.label()
                                          : cpu.oc.label());
                        geo.add_failure(series, e.label, "x");
                    } else if (!co.ms || !cpu.ms) {
                        row.push_back("crash");
                        geo.add_failure(series, e.label, "x");
                    } else {
                        const double s = *cpu.ms / *co.ms;
                        row.push_back(Table::num(s, 2));
                        geo.add_result(series, e.label, "x", s);
                    }
                }
                std::string paper;
                for (std::size_t d = 0; d < 5; ++d) {
                    const double pv =
                        e.paper_fig5[d][static_cast<std::size_t>(size - 1)];
                    if (d > 0) paper += '/';
                    paper += pv > 0.0 ? Table::num(pv, 2) : "crash";
                }
                row.push_back(std::move(paper));
                t.add_row(std::move(row));
            }
            t.print(std::cout);
        }
    } catch (const std::exception& e) {
        std::cerr << "aborting (--fail-fast): " << e.what() << "\n";
        return 1;
    }

    std::cout << "\nGeometric means over applications (ours vs paper):\n";
    Table g({"Device", "Size 1", "Size 2", "Size 3", "Paper S1", "Paper S2",
             "Paper S3"});
    const double paper_geo[5][3] = {{5.07, 7.00, 8.61},
                                    {4.91, 9.40, 23.14},
                                    {6.12, 12.44, 21.11},
                                    {2.16, 2.29, 1.44},
                                    {2.55, 2.25, 1.48}};
    std::size_t di = 0;
    for (const auto& dev_name : bench::fig5_devices()) {
        std::vector<std::string> row{dev_name};
        for (int size : {1, 2, 3})
            row.push_back(Table::num(
                geo.geomean("speedup_" + dev_name + "_size" +
                            std::to_string(size)),
                2));
        for (int i = 0; i < 3; ++i)
            row.push_back(Table::num(paper_geo[di][static_cast<std::size_t>(i)], 2));
        g.add_row(std::move(row));
        ++di;
    }
    g.print(std::cout);
    altis::print_outcomes(geo, std::cout);
    if (const int rc = trace_harness.finish(); rc != 0) return rc;
    if (altis::resilience::interrupted())
        return 128 + altis::resilience::interrupt_signal();
    return geo.all_outcomes_ok() ? 0 : 1;
}
