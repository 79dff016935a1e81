// Suite view shared by the figure/table benches: one entry per column of the
// paper's evaluation figures, wiring the app's region/design builders plus
// the paper's published values for side-by-side comparison (EXPERIMENTS.md
// is generated from these outputs).
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/common/region.hpp"
#include "core/registry.hpp"
#include "perf/device.hpp"
#include "resilience/supervisor.hpp"

namespace altis::bench {

struct SuiteEntry {
    std::string label;  ///< figure column label, e.g. "CFD FP32"
    bool in_fig2 = true;
    bool in_fig45 = true;  ///< DWT2D is absent from Figs. 4/5 (Sec. 5.4)
    const char* fpga_impl = "";

    std::function<apps::timed_region(Variant, const perf::device_spec&, int)>
        region;
    /// Region of the original CUDA with its timing bug, when the app has one
    /// (FDTD2D, Sec. 3.3); used for the Fig. 2 baseline comparison.
    std::function<apps::timed_region(const perf::device_spec&, int)>
        cuda_mistimed;
    /// Region of the CUDA code after applying the fix the paper ported back
    /// (PF Float's pow(a,2) -> a*a); used for the Fig. 2 optimized panel.
    std::function<apps::timed_region(const perf::device_spec&, int)>
        cuda_fixed;
    std::function<std::vector<perf::kernel_stats>(const perf::device_spec&, int)>
        fpga_design;
    /// True when this configuration crashes (Where size 3 on Agilex).
    std::function<bool(const perf::device_spec&, Variant, int)> crashes;

    // ---- paper reference values (indexed by size-1) ----
    std::array<double, 3> paper_fig2_baseline{};   ///< Fig. 2 top panel
    std::array<double, 3> paper_fig2_optimized{};  ///< Fig. 2 bottom panel
    std::array<double, 3> paper_fig4{};            ///< Fig. 4 (S10 opt/base)
    /// Fig. 5 rows: per device {rtx, a100, max, s10, agilex} x size; 0 = not
    /// reported (Where size 3 on Agilex).
    std::array<std::array<double, 3>, 5> paper_fig5{};
};

/// The 13 Fig. 2 columns in figure order.
[[nodiscard]] const std::vector<SuiteEntry>& suite();

/// Device name list of Fig. 5's bar series, in order.
[[nodiscard]] std::span<const std::string> fig5_devices();

/// Total simulated milliseconds of one configuration; uses the matching
/// runtime (CUDA variant -> CUDA runtime). Returns nullopt when the
/// configuration crashes or does not exist.
[[nodiscard]] std::optional<double> total_ms(const SuiteEntry& e, Variant v,
                                             const std::string& device,
                                             int size);

/// Simulates one configuration through the sweep supervisor (journal
/// replay, breaker, deadline scope, retries; see resilience::supervisor)
/// and returns its entry, whose `value` is the simulated total in ms.
/// Nonexistent configurations (variant/device mismatch, known crash,
/// unimplemented variant) come back skipped without touching journal or
/// breaker.
[[nodiscard]] resilience::journal_entry run_config(const SuiteEntry& e,
                                                   Variant v,
                                                   const std::string& device,
                                                   int size,
                                                   resilience::supervisor& sup);

}  // namespace altis::bench
