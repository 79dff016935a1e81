// Catalog of the runtime's wall-clock instruments. Every metric the
// functional substrate emits is declared here, in one place, so the name,
// help text and type that reach the Prometheus/JSON exports (and the table
// in docs/OBSERVABILITY.md) cannot drift from the instrumentation sites.
//
// Each accessor registers on first use (mutex-guarded, cold) and afterwards
// returns the cached reference. Call sites must gate on
// metrics::collecting() first -- the accessors themselves are cheap but not
// free (a static-init guard check), and the clock reads that usually feed
// them are not either.
#pragma once

#include <chrono>
#include <cstdint>

#include "metrics/registry.hpp"

namespace altis::metrics::instruments {

/// Steady-clock nanoseconds since an arbitrary epoch: the wall-clock reading
/// every runtime instrument meters with. Distinct from the simulated
/// timeline, which must stay byte-identical with metrics off or on.
[[nodiscard]] inline std::uint64_t wall_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// ---- syclite::queue -------------------------------------------------------

inline counter& queue_submissions() {
    static counter& c = registry::instance().get_counter(
        "syclite_queue_submissions_total",
        "Kernel submissions accepted by syclite::queue (sequential and "
        "dataflow)");
    return c;
}

inline histogram& queue_submit_latency_ns() {
    static histogram& h = registry::instance().get_histogram(
        "syclite_queue_submit_latency_ns",
        "Wall-clock ns from submit() entry to functional completion of the "
        "command group");
    return h;
}

inline gauge& queue_inflight_kernels() {
    static gauge& g = registry::instance().get_gauge(
        "syclite_queue_inflight_kernels",
        "Kernels currently executing on the functional substrate");
    return g;
}

inline counter& queue_waits() {
    static counter& c = registry::instance().get_counter(
        "syclite_queue_waits_total", "queue::wait() synchronizations");
    return c;
}

inline counter& queue_async_errors() {
    static counter& c = registry::instance().get_counter(
        "syclite_queue_async_errors_total",
        "Errors captured for asynchronous delivery (handler installed) or "
        "raised from kernel execution");
    return c;
}

inline counter& queue_dataflow_groups() {
    static counter& c = registry::instance().get_counter(
        "syclite_queue_dataflow_groups_total",
        "Dataflow groups launched via end_dataflow()");
    return c;
}

// ---- syclite::thread_pool -------------------------------------------------

inline counter& pool_worker_busy_ns() {
    static counter& c = registry::instance().get_counter(
        "syclite_pool_worker_busy_ns",
        "Wall-clock ns pool workers spent executing job chunks");
    return c;
}

inline counter& pool_worker_idle_ns() {
    static counter& c = registry::instance().get_counter(
        "syclite_pool_worker_idle_ns",
        "Wall-clock ns pool workers spent parked waiting for work");
    return c;
}

inline counter& pool_jobs() {
    static counter& c = registry::instance().get_counter(
        "syclite_pool_jobs_total", "parallel_for jobs published to the pool");
    return c;
}

inline counter& pool_chunks() {
    static counter& c = registry::instance().get_counter(
        "syclite_pool_chunks_total",
        "Work chunks self-scheduled by job participants (submitter and "
        "workers)");
    return c;
}

inline gauge& pool_active_workers() {
    static gauge& g = registry::instance().get_gauge(
        "syclite_pool_active_workers",
        "Pool workers currently executing a job (excludes the submitting "
        "thread)");
    return g;
}

// ---- syclite::pipe --------------------------------------------------------

inline watermark& pipe_occupancy_hwm() {
    static watermark& w = registry::instance().get_watermark(
        "syclite_pipe_occupancy_hwm",
        "High-water mark of buffered elements across all pipes");
    return w;
}

inline counter& pipe_items() {
    static counter& c = registry::instance().get_counter(
        "syclite_pipe_items_total",
        "Elements moved through pipes (writes; element and burst APIs)");
    return c;
}

inline histogram& pipe_burst_items() {
    static histogram& h = registry::instance().get_histogram(
        "syclite_pipe_burst_items",
        "Span length per write_burst/read_burst call");
    return h;
}

inline counter& pipe_blocked_write_ns() {
    static counter& c = registry::instance().get_counter(
        "syclite_pipe_blocked_write_ns",
        "Wall-clock ns producers spent waiting for ring space");
    return c;
}

inline counter& pipe_blocked_read_ns() {
    static counter& c = registry::instance().get_counter(
        "syclite_pipe_blocked_read_ns",
        "Wall-clock ns consumers spent waiting for ring data");
    return c;
}

inline counter& pipe_parks() {
    static counter& c = registry::instance().get_counter(
        "syclite_pipe_parks_total",
        "Times a pipe endpoint exhausted its spin/yield budget and parked on "
        "the condvar");
    return c;
}

inline counter& pipe_wakes() {
    static counter& c = registry::instance().get_counter(
        "syclite_pipe_wakes_total",
        "Dekker-handshake notifications sent to a parked peer");
    return c;
}

// ---- allocators (USM + buffers) ------------------------------------------

inline gauge& usm_live_bytes() {
    static gauge& g = registry::instance().get_gauge(
        "syclite_usm_live_bytes", "Bytes currently allocated through USM");
    return g;
}

inline watermark& usm_peak_bytes() {
    static watermark& w = registry::instance().get_watermark(
        "syclite_usm_peak_bytes", "Peak USM bytes live at once");
    return w;
}

inline counter& usm_allocs() {
    static counter& c = registry::instance().get_counter(
        "syclite_usm_allocs_total", "USM allocations (malloc_host/device/shared)");
    return c;
}

inline counter& usm_frees() {
    static counter& c = registry::instance().get_counter(
        "syclite_usm_frees_total", "USM frees");
    return c;
}

inline gauge& buffer_live_bytes() {
    static gauge& g = registry::instance().get_gauge(
        "syclite_buffer_live_bytes",
        "Bytes currently held by live syclite::buffer objects");
    return g;
}

inline watermark& buffer_peak_bytes() {
    static watermark& w = registry::instance().get_watermark(
        "syclite_buffer_peak_bytes", "Peak buffer bytes live at once");
    return w;
}

inline counter& buffer_allocs() {
    static counter& c = registry::instance().get_counter(
        "syclite_buffer_allocs_total", "syclite::buffer constructions");
    return c;
}

// ---- altis::mem -----------------------------------------------------------

inline counter& mem_pool_hits() {
    static counter& c = registry::instance().get_counter(
        "altis_mem_pool_hits_total",
        "Allocations served from a pool cache (thread magazine, central free "
        "list or large-object reuse cache)");
    return c;
}

inline counter& mem_pool_misses() {
    static counter& c = registry::instance().get_counter(
        "altis_mem_pool_misses_total",
        "Allocations that needed fresh OS memory (slab carve or large "
        "object)");
    return c;
}

inline counter& mem_recycled_bytes() {
    static counter& c = registry::instance().get_counter(
        "altis_mem_recycled_bytes_total",
        "Payload bytes served from pool caches instead of the OS");
    return c;
}

inline gauge& mem_magazine_blocks() {
    static gauge& g = registry::instance().get_gauge(
        "altis_mem_magazine_blocks",
        "Blocks currently cached in per-thread magazines (re-seeded from "
        "the pool at session start)");
    return g;
}

inline gauge& mem_reuse_cache_bytes() {
    static gauge& g = registry::instance().get_gauge(
        "altis_mem_reuse_cache_bytes",
        "Bytes currently parked in the large-object reuse cache");
    return g;
}

inline counter& mem_parallel_copies() {
    static counter& c = registry::instance().get_counter(
        "altis_mem_parallel_copies_total",
        "Transfers that took the chunked parallel-memcpy fast path");
    return c;
}

inline counter& mem_parallel_copy_bytes() {
    static counter& c = registry::instance().get_counter(
        "altis_mem_parallel_copy_bytes_total",
        "Bytes moved by the parallel-memcpy fast path");
    return c;
}

// ---- syclite::graph (out-of-order DAG scheduler) --------------------------

inline counter& sched_nodes() {
    static counter& c = registry::instance().get_counter(
        "altis_sched_nodes_total",
        "Command nodes (kernels and transfers) enqueued on out-of-order "
        "graph schedulers");
    return c;
}

inline counter& sched_edges() {
    static counter& c = registry::instance().get_counter(
        "altis_sched_edges_total",
        "Dependency edges resolved at enqueue (explicit depends_on plus "
        "accessor/USM-implied RAW/WAR/WAW conflicts)");
    return c;
}

inline watermark& sched_ready_depth() {
    static watermark& w = registry::instance().get_watermark(
        "altis_sched_ready_depth",
        "High-water mark of dependency-free nodes waiting for a dispatch "
        "slot");
    return w;
}

inline histogram& sched_dispatch_latency_ns() {
    static histogram& h = registry::instance().get_histogram(
        "altis_sched_dispatch_latency_ns",
        "Wall-clock ns from a node becoming ready to a worker (or joining "
        "host) starting it");
    return h;
}

inline histogram& sched_overlap_pct() {
    static histogram& h = registry::instance().get_histogram(
        "altis_sched_overlap_pct",
        "Per-join overlap ratio: summed modeled node time over the graph "
        "region's makespan, in percent (100 = fully serial, higher = "
        "overlapped)");
    return h;
}

inline counter& sched_cancelled_nodes() {
    static counter& c = registry::instance().get_counter(
        "altis_sched_cancelled_nodes_total",
        "Graph nodes cancelled at their dispatch checkpoint (deadline or "
        "explicit cancellation) before running");
    return c;
}

// ---- altis::sanitize ------------------------------------------------------

inline counter& sanitize_shadow_intervals() {
    static counter& c = registry::instance().get_counter(
        "altis_sanitize_shadow_intervals_total",
        "Observed-access intervals flushed into the sanitize shadow store");
    return c;
}

inline counter& sanitize_race_checks() {
    static counter& c = registry::instance().get_counter(
        "altis_sanitize_race_checks_total",
        "Happens-before queries evaluated by the ALS-R1 race pass");
    return c;
}

// ---- altis::fault ---------------------------------------------------------

inline counter& fault_retries() {
    static counter& c = registry::instance().get_counter(
        "altis_fault_retries_total",
        "Retries performed by the sweep supervisor after retryable faults");
    return c;
}

inline counter& fault_backoff_ns() {
    static counter& c = registry::instance().get_counter(
        "altis_fault_backoff_ns_total",
        "Accounted (simulated) exponential-backoff ns across retries");
    return c;
}

inline counter& fault_failures() {
    static counter& c = registry::instance().get_counter(
        "altis_fault_failures_total",
        "Configurations that exhausted retries or hit non-retryable "
        "errors");
    return c;
}

// ---- altis::resilience ----------------------------------------------------

inline counter& resilience_deadline_misses() {
    static counter& c = registry::instance().get_counter(
        "resilience_deadline_misses_total",
        "Configurations cancelled because they overran --deadline-ms");
    return c;
}

inline counter& resilience_quarantined() {
    static counter& c = registry::instance().get_counter(
        "resilience_quarantined_total",
        "Configurations skipped by an open circuit breaker");
    return c;
}

inline counter& resilience_replays() {
    static counter& c = registry::instance().get_counter(
        "resilience_replayed_total",
        "Configurations replayed from a --resume journal instead of re-run");
    return c;
}

inline histogram& resilience_cancel_latency_ns() {
    static histogram& h = registry::instance().get_histogram(
        "resilience_cancel_latency_ns",
        "Wall-clock ns from the cancellation being due (deadline expiry or "
        "cancel()) to a checkpoint raising it");
    return h;
}

}  // namespace altis::metrics::instruments
