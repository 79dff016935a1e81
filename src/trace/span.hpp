// Typed spans on the simulated timeline. A span is one interval of simulated
// time attributed to a cause: a named kernel, a PCIe transfer, runtime
// bookkeeping, one-time setup, a host sync, a dataflow group's wall-clock
// envelope, or a top-level timed region. Kernel spans carry the counters the
// perf models derived for them (modeled FLOPs, bytes, occupancy, II,
// divergence) so exported traces explain *why* a span is as long as it is,
// not just how long it is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace altis::trace {

enum class span_kind {
    kernel,          ///< one kernel execution (or an aggregated slot)
    transfer,        ///< host<->device PCIe payload
    overhead,        ///< launch/runtime bookkeeping, library-internal costs
    setup,           ///< one-time context/JIT setup inside a timed region
    sync,            ///< host-side synchronization (queue::wait)
    dataflow_group,  ///< wall-clock envelope of concurrently-running kernels
    region,          ///< application timed region (top-level)
};

[[nodiscard]] const char* to_string(span_kind k);

/// Failure flag for spans: operations hit by fault injection (or real
/// errors) are marked `failed`; a successful re-attempt after a retryable
/// fault is marked `retried`. Configurations the resilience supervisor cut
/// short carry `cancelled` (deadline expiry or SIGINT/SIGTERM) and
/// breaker-skipped ones carry `quarantined`. Exporters surface the flag so
/// timelines show exactly where injections and cancellations landed.
enum class span_status {
    ok,
    failed,
    retried,
    cancelled,
    quarantined,
};

[[nodiscard]] const char* to_string(span_status s);

/// Model-derived counters attached to kernel spans (zero elsewhere).
struct span_counters {
    double flops = 0.0;       ///< total modeled FP ops (FP32+FP64+SFU)
    double bytes = 0.0;       ///< total modeled global-memory traffic
    double occupancy = 0.0;   ///< GPU SM occupancy fraction, 0 when n/a
    double divergence = 0.0;  ///< SIMD divergence fraction
    int initiation_interval = 0;  ///< worst achieved II (single-task), 0 n/a
    /// How many launches this span aggregates. The functional path emits one
    /// span per submission (1); the region simulator folds a slot's `count`
    /// repetitions into one span, so aggregate math stays exact without
    /// emitting thousands of identical events.
    double invocations = 1.0;
};

struct span {
    span_kind kind = span_kind::overhead;
    std::string name;       ///< kernel name; empty/role name otherwise
    double start_ns = 0.0;  ///< simulated clock
    double end_ns = 0.0;
    /// Timeline lane. 0 is the main sequential lane; dataflow kernels are
    /// placed on lanes 1..N so exported traces show them overlapping
    /// (paper Fig. 3). Lanes are reused by successive groups.
    int track = 0;
    span_status status = span_status::ok;
    span_counters counters{};
    /// Graph command id of this span (out-of-order queues; 0 = not a graph
    /// command). Stable within a session; the chrome exporter uses it to
    /// anchor Perfetto flow arrows between dependent commands.
    std::uint64_t cmd = 0;
    /// Graph command ids this command depends on (explicit depends_on plus
    /// accessor-implied edges). Empty for in-order spans.
    std::vector<std::uint64_t> deps{};

    [[nodiscard]] double duration_ns() const { return end_ns - start_ns; }
};

}  // namespace altis::trace
