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
#include "fault/retry.hpp"
#include "perf/device.hpp"
#include "resilience/journal.hpp"
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

/// Canonical configuration label used everywhere a sweep names one cell:
/// "<label>/<variant>/<device>/size<N>", e.g. "KMeans/fpga_opt/stratix_10/size2".
[[nodiscard]] std::string config_label(const SuiteEntry& e, Variant v,
                                       const std::string& device, int size);

/// Result of one resilient configuration run (see run_config).
struct ConfigOutcome {
    /// Simulated total, present only when some attempt succeeded.
    std::optional<double> ms;
    /// Retry bookkeeping: status/attempts/backoff/error.
    fault::outcome oc;
    /// True when the configuration does not exist (variant/device mismatch,
    /// known crash, unimplemented variant) rather than having failed.
    bool skipped = false;
    std::string skip_reason;
};

/// Resilient replacement for total_ms: simulates the configuration under the
/// active fault plan, retrying retryable injected faults per `policy`.
/// Nonexistent configurations come back skipped; failures come back with the
/// error string instead of throwing (unless `fail_fast`). Retries emit a
/// `retried` span into the current trace session so timelines show where the
/// sweep degraded.
[[nodiscard]] ConfigOutcome run_config(const SuiteEntry& e, Variant v,
                                       const std::string& device, int size,
                                       const fault::retry_policy& policy = {},
                                       bool fail_fast = false);

/// Supervised variant: routes the configuration through the resilience
/// supervisor (journal replay -> breaker admission -> deadline scope ->
/// fsync'd journaling). Nonexistent configurations are skipped before the
/// supervisor -- the checks are deterministic, so resume recomputes them
/// identically and the journal stays free of noise. Degraded terminal
/// states (deadline, cancelled, quarantined) emit a matching zero-length
/// span into the current trace session.
[[nodiscard]] ConfigOutcome run_config(const SuiteEntry& e, Variant v,
                                       const std::string& device, int size,
                                       const fault::retry_policy& policy,
                                       bool fail_fast,
                                       resilience::supervisor& sup);

/// Breaker quarantine key of a configuration: the config label without the
/// size component, so repeated hard failures of one app/variant/device pair
/// open the circuit for its remaining sizes.
[[nodiscard]] std::string breaker_key(const SuiteEntry& e, Variant v,
                                      const std::string& device);

/// Journal conversion for the fig sweeps (altis_run captures log/results on
/// top of these).
[[nodiscard]] resilience::journal_entry outcome_to_entry(
    const std::string& label, const ConfigOutcome& co);
[[nodiscard]] ConfigOutcome entry_to_outcome(
    const resilience::journal_entry& entry);

/// Records a zero-length cancelled/quarantined span at the end of the
/// current trace session (no-op without one, or for healthy statuses).
void emit_degraded_span(const std::string& label, const fault::outcome& oc);

/// Records the outcome under `label` when it carries information: injection
/// is active, or the configuration failed or needed retries. Expected skips
/// of nonexistent configurations (the legacy "n/a"/"crash" cells) are only
/// logged while a fault plan is active, so fault-free reports keep their
/// historical shape.
void record_config_outcome(ResultDatabase& db, const std::string& label,
                           const ConfigOutcome& co, bool injection_enabled);

}  // namespace altis::bench
