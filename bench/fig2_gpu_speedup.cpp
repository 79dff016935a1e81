// Regenerates Figure 2: speedup of Altis-SYCL over Altis (CUDA) on the
// RTX 2080 -- the Baseline (functionally-correct DPCT migration) and the
// Optimized (Sec. 3.3 techniques) panels, across input sizes 1-3, plus the
// geometric means. FDTD2D's baseline compares against the *mistimed*
// original CUDA (missing cudaDeviceSynchronize), as in the paper.
//
// The sweep is resilient: under an --inject fault plan each cell (which
// simulates both the CUDA reference and the SYCL variant) is retried per
// policy; degraded cells print as FAILED and are logged in the outcome
// section while the rest of the figure still regenerates.
#include <cmath>
#include <iostream>

#include "apps/common/app.hpp"
#include "apps/common/suite.hpp"
#include "core/report.hpp"
#include "core/result_database.hpp"
#include "trace/harness.hpp"

namespace {

using altis::Table;
using altis::Variant;
namespace bench = altis::bench;
namespace apps = altis::apps;
namespace perf = altis::perf;
namespace resilience = altis::resilience;

double speedup(const bench::SuiteEntry& e, Variant sycl_variant, int size) {
    const perf::device_spec& rtx = perf::device_by_name("rtx_2080");
    // FDTD2D baseline: the paper's comparison point is the unsynchronized
    // CUDA timing (Sec. 3.3).
    double cuda_ms;
    if (sycl_variant == Variant::sycl_base && e.cuda_mistimed) {
        cuda_ms = apps::simulate_region(e.cuda_mistimed(rtx, size), rtx,
                                        perf::runtime_kind::cuda)
                      .total_ms();
    } else if (sycl_variant == Variant::sycl_opt && e.cuda_fixed) {
        // Optimized panel: the paper ported the fix back to CUDA first.
        cuda_ms = apps::simulate_region(e.cuda_fixed(rtx, size), rtx,
                                        perf::runtime_kind::cuda)
                      .total_ms();
    } else {
        cuda_ms = *bench::total_ms(e, Variant::cuda, "rtx_2080", size);
    }
    const double sycl_ms = *bench::total_ms(e, sycl_variant, "rtx_2080", size);
    return cuda_ms / sycl_ms;
}

void panel(const char* title, Variant v,
           const std::array<double, 3> bench::SuiteEntry::* paper,
           resilience::supervisor& sup, altis::ResultDatabase& outcomes) {
    std::cout << "== " << title << " ==\n";
    Table t({"Application", "Size 1", "Size 2", "Size 3", "Paper S1",
             "Paper S2", "Paper S3"});
    altis::ResultDatabase db;
    for (const auto& e : bench::suite()) {
        if (!e.in_fig2) continue;
        std::vector<std::string> row{e.label};
        for (int size : {1, 2, 3}) {
            const resilience::journal_entry cell =
                sup.run(apps::config_label(e.label, v, "rtx_2080", size),
                        apps::breaker_key(e.label, v, "rtx_2080"),
                        [&](resilience::journal_entry& out) {
                            out.value = speedup(e, v, size);
                        })
                    .entry;
            sup.record(outcomes, cell);
            if (!cell.oc.succeeded()) {
                row.push_back(cell.oc.st == resilience::outcome::status::failed
                                  ? "FAILED"
                                  : cell.oc.label());
                continue;
            }
            db.add_result("speedup_size" + std::to_string(size), e.label, "x",
                          *cell.value);
            row.push_back(Table::num(*cell.value, 2));
        }
        for (int i = 0; i < 3; ++i)
            row.push_back(
                Table::num((e.*paper)[static_cast<std::size_t>(i)], 2));
        t.add_row(std::move(row));
    }
    t.print(std::cout);
    std::cout << "geomean: size1 " << Table::num(db.geomean("speedup_size1"), 2)
              << ", size2 " << Table::num(db.geomean("speedup_size2"), 2)
              << ", size3 " << Table::num(db.geomean("speedup_size3"), 2)
              << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    altis::trace::cli_harness trace_harness("fig2_gpu_speedup");
    if (const int rc = trace_harness.parse(argc, argv); rc >= 0) return rc;

    resilience::supervisor& sup = trace_harness.supervisor();

    std::cout << "Figure 2: Speedup of Altis-SYCL over Altis (CUDA) on the "
                 "RTX 2080\n\n";
    altis::ResultDatabase outcomes;
    try {
        panel("Baseline (DPCT migration, functionally correct)",
              Variant::sycl_base, &bench::SuiteEntry::paper_fig2_baseline, sup,
              outcomes);
        std::cout << "paper geomean reference: optimized 1.0 / 1.1 / 1.3\n\n";
        panel("Optimized (Sec. 3.3)", Variant::sycl_opt,
              &bench::SuiteEntry::paper_fig2_optimized, sup, outcomes);
    } catch (const std::exception& e) {
        std::cerr << "aborting (--fail-fast): " << e.what() << "\n";
        return 1;
    }
    altis::print_outcomes(outcomes, std::cout);
    if (const int rc = trace_harness.finish(); rc != 0) return rc;
    if (resilience::interrupted()) return 128 + resilience::interrupt_signal();
    return outcomes.all_outcomes_ok() ? 0 : 1;
}
