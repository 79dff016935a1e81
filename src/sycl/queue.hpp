// Queue, event and the simulated timeline. Kernels execute functionally on
// the host; each submission advances a simulated clock using the perf models
// of the queue's device and runtime (DESIGN.md Sec. 4):
//
//   submit --(launch overhead: non-kernel)--> start --(kernel model)--> end
//
// Events expose the simulated start/end like sycl::event profiling info;
// submit(), the copies and end_dataflow() return the events they build (the
// queue keeps no log of them). Dataflow groups (begin_dataflow/end_dataflow)
// run their kernels on real concurrent threads -- required for pipe
// communication -- and overlap them on the simulated timeline (paper Fig. 3).
//
// Timeline bookkeeping has one site per concept (DESIGN.md Sec. 4a): every
// host-clock charge (setup, graph launch, eager transfer, overhead, wait
// sync) goes through charge(); every span reaches the trace session through
// emit_span(), the only place the session offset is applied; every failed
// command is a detail::command_failure. Three folds advance the clock with
// arithmetic of their own, kept verbatim so no modeled timestamp moves: the
// in-order kernel (record), the graph join and the dataflow group.
//
// Error model (SYCL-conformant, see sycl/error.hpp): a queue may carry an
// async_handler. Errors raised by kernel execution -- including injected
// faults from an active altis::fault plan -- are then collected and
// delivered as an exception_list at wait()/end_dataflow() boundaries, in
// submission order, and the queue remains usable. Without a handler the
// first error is (re)thrown at the point it is observed.
//
// Queue properties (sycl::property::queue analogue): the default in_order
// queue executes every submission eagerly and synchronously and charges each
// kernel its modeled duration directly, which keeps simulated times
// bit-exact (a graph's lane-union fold charges (start + dur) - start, which
// is not bit-equal to dur). queue_property::out_of_order routes
// kernels and copies through a graph::scheduler instead -- edges from
// handler::depends_on events and accessor/USM-implied conflicts, ready nodes
// dispatched asynchronously on the thread pool, errors delivered as an
// exception_list at the next graph join (wait()/throw_asynchronous). See
// sycl/graph.hpp and DESIGN.md "Command graph & scheduling". Whichever path
// runs a command, it runs through the one body in sycl/command.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "perf/device.hpp"
#include "perf/overhead.hpp"
#include "sycl/command.hpp"
#include "sycl/error.hpp"
#include "sycl/event.hpp"
#include "sycl/graph.hpp"
#include "sycl/handler.hpp"
#include "trace/session.hpp"

namespace syclite {

namespace trace = altis::trace;

/// Execution-ordering property fixed at queue construction.
enum class queue_property {
    in_order,      ///< eager synchronous execution in submission order
    out_of_order,  ///< DAG scheduler; only declared dependencies order work
};

class queue {
public:
    explicit queue(const perf::device_spec& dev,
                   perf::runtime_kind rt = perf::runtime_kind::sycl,
                   async_handler handler = {},
                   queue_property prop = queue_property::in_order);
    queue(const std::string& device_name,
          perf::runtime_kind rt = perf::runtime_kind::sycl,
          async_handler handler = {},
          queue_property prop = queue_property::in_order);
    queue(const perf::device_spec& dev, queue_property prop)
        : queue(dev, perf::runtime_kind::sycl, {}, prop) {}
    queue(const std::string& device_name, queue_property prop)
        : queue(device_name, perf::runtime_kind::sycl, {}, prop) {}
    ~queue();

    queue(const queue&) = delete;
    queue& operator=(const queue&) = delete;

    [[nodiscard]] const perf::device_spec& device() const { return dev_; }
    [[nodiscard]] perf::runtime_kind runtime() const { return rt_; }
    [[nodiscard]] bool is_in_order() const { return sched_ == nullptr; }

    /// Installs (or clears) the asynchronous error handler; see the header
    /// comment for the delivery contract.
    void set_async_handler(async_handler handler) {
        handler_ = std::move(handler);
    }
    [[nodiscard]] bool has_async_handler() const {
        return static_cast<bool>(handler_);
    }

    template <typename CGF>
    event submit(CGF&& cgf) {
        handler h;
        h.begin_capture(recorder_, /*track_ranges=*/sched_ != nullptr);
        cgf(h);
        return finish_submit(std::move(h));
    }

    /// Host synchronization (cudaDeviceSynchronize / queue::wait analogue);
    /// charges sync overhead to the non-kernel region, then delivers any
    /// pending asynchronous errors (sycl::queue::wait_and_throw semantics).
    void wait();

    /// Delivers pending asynchronous errors without synchronizing: calls the
    /// async_handler with the accumulated exception_list, or rethrows the
    /// first pending error when no handler is installed. No-op when clean.
    void throw_asynchronous();

    /// All kernels submitted until end_dataflow() run concurrently (real
    /// threads; pipes may connect them) and overlap on the simulated
    /// timeline. Nesting is not allowed. Prefer dataflow_guard (below) so an
    /// exception cannot leave the group latched open.
    void begin_dataflow();
    /// Joins the dataflow kernels and returns their events. Worker errors
    /// are delivered here: pipe deadlocks are merged into one structured
    /// dataflow_error naming every blocked kernel; with an async_handler the
    /// full list arrives in submission order and the queue stays usable.
    std::vector<event> end_dataflow();
    /// Abandons an open dataflow group: joins any worker threads and
    /// discards their pending stats and errors. Safe to call when no group
    /// is open. Used by dataflow_guard on exception escape.
    void abort_dataflow() noexcept;

    /// Modeled host->device / device->host copies; mirror the cudaMemcpy
    /// calls of the original Altis code. Functionally a memcpy (buffers are
    /// host-backed); on the timeline a PCIe transfer. Large trivially
    /// copyable spans take the mem::copy_bytes fast path -- chunked parallel
    /// memcpy jobs on the thread pool. Wall-clock only: the simulated PCIe
    /// charge from annotate_transfer is identical either way.
    template <typename T>
    event copy_to_device(buffer<T>& dst, const T* src) {
        constexpr bool raw = std::is_trivially_copyable_v<T>;
        event e = submit_transfer(/*to_device=*/true, dst.host_data(), src,
                                  dst.byte_size(), raw);
        if constexpr (!raw) std::copy(src, src + dst.size(), dst.host_data());
        return e;
    }
    template <typename T>
    event copy_from_device(const buffer<T>& src, T* dst) {
        constexpr bool raw = std::is_trivially_copyable_v<T>;
        event e = submit_transfer(/*to_device=*/false, dst, src.host_data(),
                                  src.byte_size(), raw);
        if constexpr (!raw)
            std::copy(src.host_data(), src.host_data() + src.size(), dst);
        return e;
    }
    /// Timing-only transfer annotation (no functional copy); also the
    /// injection point for `transfer` faults.
    void annotate_transfer(double bytes);

    /// Charge arbitrary non-kernel time (library temp allocations, etc.).
    void annotate_overhead_ns(double ns);

    /// FPGA only: pin the design Fmax to that of a full bitstream (all
    /// kernels compiled together); subsequent kernel timings use it instead
    /// of per-kernel estimates. Matches simulate_region's design-level Fmax.
    void set_design(const std::vector<perf::kernel_stats>& design_kernels);

    // ---- simulated timeline ----
    [[nodiscard]] double sim_now_ns() const { return sim_now_ns_; }
    [[nodiscard]] double kernel_ns() const { return kernel_ns_; }
    [[nodiscard]] double non_kernel_ns() const { return non_kernel_ns_; }
    void reset_timers();
    /// Charges the runtime's one-time setup cost (context/JIT) to the
    /// non-kernel region; apps call this at the start of a timed region.
    void charge_setup();

    /// Tracing. The constructor adopts trace::session::current(), so a
    /// session activated around queue construction observes every command;
    /// set_trace() overrides (nullptr detaches). Spans land on the simulated
    /// clock as commands complete.
    void set_trace(trace::session* s) { trace_ = s; }
    [[nodiscard]] trace::session* trace() const { return trace_; }

    /// Replaces the thread pool the graph scheduler dispatches ready nodes
    /// onto (default: thread_pool::global()). Benchmarks hand in a dedicated
    /// multi-worker pool to measure overlap on single-core hosts. The pool
    /// must outlive the queue or be swapped out again before dying. No-op on
    /// in-order queues.
    void set_graph_pool(thread_pool* pool) {
        if (sched_ != nullptr) sched_->set_pool(pool);
    }

    /// Sanitizing. The constructor adopts analyze::recorder::current() the
    /// same way, so `--sanitize` captures every submission's command graph
    /// with no app changes; set_recorder() overrides (nullptr detaches).
    void set_recorder(analyze::recorder* r);
    [[nodiscard]] analyze::recorder* recorder() const { return recorder_; }

private:
    /// One dataflow kernel accepted but not yet started: under a dataflow
    /// group, submissions are deferred and launched together at
    /// end_dataflow(), which lets the sanitizer lint the group's complete
    /// pipe topology before any worker thread can block on a pipe.
    struct pending_work {
        std::size_t index = 0;
        std::uint64_t cg = 0;  ///< recorder command-group id (0: none)
        std::string kernel;
        detail::small_function<void(thread_pool&)> exec;
        int actor = -1;  ///< shadow actor bound around execution (-1: none)
    };

    /// The non-template half of submit(): meters submission latency, then
    /// runs the command inline (in-order), defers it (dataflow group) or
    /// enqueues it (out-of-order).
    event finish_submit(handler&& h);
    /// Out-of-order path of submit(): two-phase enqueue onto the graph
    /// scheduler (enqueue -> recorder/trace bookkeeping -> release).
    event finish_submit_graph(handler& h);
    /// The non-template half of copy_to_device/copy_from_device. `raw`
    /// (trivially copyable elements) copies the bytes here, as a graph node on
    /// out-of-order queues; otherwise the graph is joined and the caller
    /// copies element-wise after this returns.
    event submit_transfer(bool to_device, void* dst, const void* src,
                          std::size_t bytes, bool raw);
    /// Async copy as a graph node. `device` is the buffer's backing range
    /// (the conflict identity kernels declare); `host` the app-side pointer.
    event submit_transfer_graph(bool to_device, void* dst_ptr,
                                const void* src_ptr, std::size_t bytes);
    /// The sanitizer's command-graph node for a kernel submission; moves the
    /// handler's captured accesses and pipes.
    analyze::node kernel_node(handler& h) const;
    /// Joins the whole graph and folds its modeled timeline into the queue
    /// clocks; queues node errors for async delivery (cancellation rethrows)
    /// and starts a fresh epoch. No-op on in-order queues.
    void join_graph();
    /// Moves settled node failures into async_errors_ (submission order)
    /// without joining; rethrows directly on cancellation.
    void collect_graph_errors();
    /// In-order kernel: charges launch + modeled duration to the clock and
    /// returns the kernel's event.
    event record(const perf::kernel_stats& stats, double duration_ns);
    /// The one host-clock charge: `ns` of non-kernel time at the current
    /// clock, traced as a `kind` span (`bytes` fills a transfer's counter).
    void charge(trace::span_kind kind, const char* name, double ns,
                double bytes = 0.0);
    /// The one site that puts a span on the session timeline (no-op when
    /// untraced). `s` carries queue-local times, shifted here by the session
    /// offset; a span given a `length` ends that far past its shifted start
    /// instead (the two sums can differ in the last bit). `k` makes it a
    /// kernel span carrying the descriptor's model counters.
    void emit_span(trace::span s, const perf::kernel_stats* k = nullptr,
                   std::optional<double> length = std::nullopt);
    void record_error_span(const std::string& label);
    /// Cancellation outranks every other failure of a graph epoch or a
    /// dataflow group: records `label` and rethrows the first cancelled
    /// failure, if any.
    void rethrow_if_cancelled(const std::vector<detail::command_failure>& failed,
                              const char* label);
    void deliver(exception_list errors);
    void launch_dataflow_workers();

    const perf::device_spec& dev_;
    perf::runtime_kind rt_;
    trace::session* trace_ = nullptr;
    /// Session-timeline offset for emitted spans: each queue's simulated
    /// clock starts at 0, but a session may outlive many queues (altis_run
    /// over several apps), so emit_span shifts spans to append after
    /// whatever the session already holds. Queue-local timers/events are
    /// unaffected.
    double trace_base_ns_ = 0.0;
    double design_fmax_mhz_ = 0.0;  ///< 0: estimate per kernel

    double sim_now_ns_ = 0.0;
    double kernel_ns_ = 0.0;
    double non_kernel_ns_ = 0.0;

    async_handler handler_;
    /// Errors from sequential submissions awaiting delivery (handler set).
    std::vector<std::exception_ptr> async_errors_;

    bool in_dataflow_ = false;
    std::vector<perf::kernel_stats> pending_stats_;
    std::vector<pending_work> pending_work_;
    std::vector<std::thread> pending_threads_;
    std::vector<detail::command_failure> worker_errors_;
    std::mutex worker_errors_mutex_;

    analyze::recorder* recorder_ = nullptr;
    int queue_id_ = -1;       ///< recorder-assigned ordinal
    int current_group_ = -1;  ///< open dataflow group id (recorder active)

    /// Non-null iff constructed queue_property::out_of_order.
    std::unique_ptr<graph::scheduler> sched_;
    /// Simulated time the current graph epoch opened at; the overlap metric
    /// compares the epoch's modeled busy time against horizon - this.
    double epoch_start_ns_ = 0.0;
    /// Launch overhead already charged to non_kernel_ns_ this epoch, so the
    /// join's remainder fold does not double-count it.
    double epoch_launch_ns_ = 0.0;
};

/// RAII dataflow group: begins the group on construction; join() ends it and
/// returns the events. If the scope unwinds before join() -- a kernel threw,
/// an allocation failed -- the group is aborted instead of leaving the queue
/// latched in dataflow mode.
class dataflow_guard {
public:
    explicit dataflow_guard(queue& q) : q_(q) { q.begin_dataflow(); }
    ~dataflow_guard() {
        if (open_) q_.abort_dataflow();
    }
    dataflow_guard(const dataflow_guard&) = delete;
    dataflow_guard& operator=(const dataflow_guard&) = delete;

    /// Ends the group (see queue::end_dataflow). May throw; the guard is
    /// disarmed first, so the queue is never left latched.
    std::vector<event> join() {
        open_ = false;
        return q_.end_dataflow();
    }

private:
    queue& q_;
    bool open_ = true;
};

}  // namespace syclite
