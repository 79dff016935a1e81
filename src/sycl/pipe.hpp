// Inter-kernel pipes (Intel FPGA extension analogue). A pipe is a bounded
// blocking FIFO connecting two kernels of one dataflow group; the optimized
// KMeans design (paper Fig. 3) streams every point's mapping through a pipe
// instead of bouncing it off global memory.
//
// Divergence from Intel SYCL: Intel pipes are static program-scope classes
// (pipe<id, T, capacity>::write). syclite pipes are objects captured by
// reference, which keeps them testable; capacity semantics are identical.
//
// Execution engine: the ring is a lock-free single-producer/single-consumer
// queue -- monotonic head/tail counters on separate cache lines, published
// with release stores and observed with acquire loads, so the per-element
// fast path takes no lock and signals no condvar. Exactly one thread may
// write (the producer kernel) and exactly one may read (the consumer
// kernel), which is what every dataflow group in the suite is; see
// docs/PERFORMANCE.md. When the ring is empty/full the waiter spins briefly,
// yields, and only then parks on a condvar; the peer wakes it through a
// Dekker-style handshake (seq_cst fence between publishing the counter and
// checking the waiter flag). write_burst/read_burst move whole spans per
// counter publication for streaming kernels.
//
// Deadlock watchdog: blocking read/write time out (constructor argument,
// $ALTIS_PIPE_TIMEOUT_MS, or 30 s by default) and throw pipe_deadlock with
// the pipe's name, capacity and occupancy. Inside a dataflow group the queue
// converts those into one structured dataflow_error naming every blocked
// kernel. An active fault plan (`pipe:<name>@N`) can stall the Nth matching
// pipe operation to exercise exactly that path; try_write/try_read consume
// the same plan rules but realize the stall as a non-blocking refusal.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analyze/shadow.hpp"
#include "fault/inject.hpp"
#include "metrics/instruments.hpp"
#include "resilience/cancel.hpp"

namespace syclite {

class pipe_deadlock : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Deadlock-timeout applied to pipes that do not pass one explicitly:
/// $ALTIS_PIPE_TIMEOUT_MS when set (and parseable), else 30000 ms. Read per
/// construction so tests can adjust the environment between pipes.
[[nodiscard]] inline std::chrono::milliseconds default_pipe_timeout() {
    if (const char* env = std::getenv("ALTIS_PIPE_TIMEOUT_MS")) {
        char* end = nullptr;
        const long ms = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && ms > 0)
            return std::chrono::milliseconds(ms);
    }
    return std::chrono::milliseconds(30000);
}

template <typename T>
class pipe {
public:
    explicit pipe(std::size_t capacity = 64, std::string name = "pipe",
                  std::chrono::milliseconds timeout = default_pipe_timeout())
        : capacity_(capacity),
          name_(std::move(name)),
          timeout_(timeout),
          ring_(capacity) {
        if (capacity == 0) throw std::invalid_argument("pipe capacity must be > 0");
        if (timeout <= std::chrono::milliseconds::zero())
            throw std::invalid_argument("pipe timeout must be > 0");
    }

    pipe(const pipe&) = delete;
    pipe& operator=(const pipe&) = delete;

    /// Blocking write; throws pipe_deadlock if the consumer never drains
    /// (guards against kernels mistakenly run outside a dataflow group).
    void write(const T& value) {
        maybe_injected_stall("write");
        if (!space_available()) wait_for_space("write");
        ring_[wrap(tail_pos_)] = value;
        publish_tail(tail_pos_ + 1);
    }

    /// Blocking read; throws pipe_deadlock if no producer ever writes.
    T read() {
        maybe_injected_stall("read");
        if (!data_available()) wait_for_data("read");
        T value = std::move(ring_[wrap(head_pos_)]);
        publish_head(head_pos_ + 1, head_pos_);
        return value;
    }

    /// Writes `n` elements from `src`, blocking as needed; moves whole spans
    /// per counter publication, so streaming kernels pay the synchronization
    /// once per burst instead of once per element. The watchdog applies to
    /// every stretch without progress, like a sequence of write() calls.
    void write_burst(const T* src, std::size_t n) {
        maybe_injected_stall("write_burst");
        if (altis::metrics::collecting())
            altis::metrics::instruments::pipe_burst_items().record(n);
        std::size_t done = 0;
        while (done < n) {
            if (!space_available()) wait_for_space("write_burst");
            const std::size_t space =
                capacity_ - static_cast<std::size_t>(tail_pos_ - head_cache_);
            std::size_t chunk = n - done;
            if (chunk > space) chunk = space;
            for (std::size_t i = 0; i < chunk; ++i)
                ring_[wrap(tail_pos_ + i)] = src[done + i];
            publish_tail(tail_pos_ + chunk);
            done += chunk;
        }
    }

    /// Reads `n` elements into `dst`, blocking as needed; the dual of
    /// write_burst.
    void read_burst(T* dst, std::size_t n) {
        maybe_injected_stall("read_burst");
        if (altis::metrics::collecting())
            altis::metrics::instruments::pipe_burst_items().record(n);
        const std::uint64_t first = head_pos_;
        std::size_t done = 0;
        while (done < n) {
            if (!data_available()) wait_for_data("read_burst");
            const std::size_t avail =
                static_cast<std::size_t>(tail_cache_ - head_pos_);
            std::size_t chunk = n - done;
            if (chunk > avail) chunk = avail;
            for (std::size_t i = 0; i < chunk; ++i)
                dst[done + i] = std::move(ring_[wrap(head_pos_ + i)]);
            publish_head(head_pos_ + chunk, first);
            done += chunk;
        }
    }

    /// Non-blocking write. An injected stall for this pipe is realized as a
    /// refusal -- the operation behaves as if the ring were full, the same
    /// "peer made no progress" semantics the blocking API turns into a
    /// watchdog timeout.
    [[nodiscard]] bool try_write(const T& value) {
        if (altis::fault::should_stall_pipe(name_)) return false;
        if (!space_available()) return false;
        ring_[wrap(tail_pos_)] = value;
        publish_tail(tail_pos_ + 1);
        return true;
    }

    /// Non-blocking read; injected stalls refuse, as in try_write.
    [[nodiscard]] bool try_read(T& value) {
        if (altis::fault::should_stall_pipe(name_)) return false;
        if (!data_available()) return false;
        value = std::move(ring_[wrap(head_pos_)]);
        publish_head(head_pos_ + 1, head_pos_);
        return true;
    }

    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::chrono::milliseconds timeout() const { return timeout_; }
    /// Elements currently buffered (racy under concurrency; for reporting).
    [[nodiscard]] std::size_t occupancy() const {
        // Head first: head only grows toward tail, so a tail loaded *after*
        // head can never be smaller and the difference cannot underflow.
        // The two counters are still published independently (and bursts
        // advance them by whole spans), so between the loads the consumer
        // may drain and the producer refill: the raw difference can exceed
        // capacity mid-burst. Clamp the snapshot into [0, capacity] so the
        // watchdog's capacity+occupancy message and the occupancy gauge can
        // never report an impossible level.
        const std::uint64_t h = head_.load(std::memory_order_acquire);
        const std::uint64_t t = tail_.load(std::memory_order_acquire);
        const std::uint64_t d = t >= h ? t - h : 0;
        return std::min(static_cast<std::size_t>(d), capacity_);
    }

private:
    [[nodiscard]] std::size_t wrap(std::uint64_t pos) const {
        // Conditional wrap instead of %: positions advance monotonically and
        // the producer/consumer each derive their slot from their own
        // counter, so slot == pos - k*capacity with k growing by at most one
        // capacity per call; a subtract loop would also work but the single
        // modulo here is only reached through the cached fast checks below.
        return static_cast<std::size_t>(pos % capacity_);
    }

    /// Producer-side fast check: true when at least one slot is free,
    /// refreshing the cached consumer position only on apparent full.
    [[nodiscard]] bool space_available() {
        if (tail_pos_ - head_cache_ < capacity_) return true;
        head_cache_ = head_.load(std::memory_order_acquire);
        return tail_pos_ - head_cache_ < capacity_;
    }

    /// Consumer-side fast check, dual of space_available().
    [[nodiscard]] bool data_available() {
        if (tail_cache_ - head_pos_ > 0) return true;
        tail_cache_ = tail_.load(std::memory_order_acquire);
        return tail_cache_ - head_pos_ > 0;
    }

    void publish_tail(std::uint64_t pos) {
        // HB edge for the race engine: snapshot the producer's clock over
        // items [tail_pos_, pos) *before* the release store makes them
        // visible, so a consumer that observes the counter always finds a
        // covering publication. Gated like the metrics below.
        if (altis::analyze::shadow::tracking())
            altis::analyze::shadow::on_pipe_publish(this, name_.c_str(),
                                                    tail_pos_, pos);
        if (altis::metrics::collecting()) {
            namespace mi = altis::metrics::instruments;
            mi::pipe_items().add(pos - tail_pos_);
            // Occupancy from the producer's view: newly published tail minus
            // the consumer's live position, clamped like occupancy() since
            // head can lag the slots we just verified free via head_cache_.
            const std::uint64_t h = head_.load(std::memory_order_relaxed);
            const std::uint64_t d = pos >= h ? pos - h : 0;
            mi::pipe_occupancy_hwm().record(
                std::min<std::uint64_t>(d, capacity_));
        }
        tail_pos_ = pos;
        tail_.store(pos, std::memory_order_release);
        // Dekker handshake with a parked consumer: the fence orders the
        // counter store before the flag load, pairing with the fence in
        // park(); either we see the flag and notify, or the waiter's
        // re-check sees the counter.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (consumer_waiting_.load(std::memory_order_relaxed)) {
            if (altis::metrics::collecting())
                altis::metrics::instruments::pipe_wakes().add();
            std::lock_guard lock(mutex_);
            not_empty_.notify_one();
        }
    }

    /// `recv_from`: where the read call that consumes [head_pos_, pos)
    /// started -- earlier than head_pos_ for a read_burst's later chunks.
    void publish_head(std::uint64_t pos, std::uint64_t recv_from) {
        // Consumer-side HB edge: join the covering publication's snapshot
        // for items [head_pos_, pos) into the consumer's clock.
        if (altis::analyze::shadow::tracking())
            altis::analyze::shadow::on_pipe_consume(
                this, name_.c_str(), recv_from, head_pos_, pos);
        head_pos_ = pos;
        head_.store(pos, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (producer_waiting_.load(std::memory_order_relaxed)) {
            if (altis::metrics::collecting())
                altis::metrics::instruments::pipe_wakes().add();
            std::lock_guard lock(mutex_);
            not_full_.notify_one();
        }
    }

    void wait_for_space(const char* op) {
        wait_until(op, producer_waiting_, not_full_,
                   [&] { return space_available(); },
                   &altis::metrics::instruments::pipe_blocked_write_ns);
    }

    void wait_for_data(const char* op) {
        wait_until(op, consumer_waiting_, not_empty_,
                   [&] { return data_available(); },
                   &altis::metrics::instruments::pipe_blocked_read_ns);
    }

    /// Slow path shared by both sides: spin briefly (the peer usually
    /// publishes within a few hundred cycles when running), yield the
    /// timeslice a few times (essential when producer and consumer share a
    /// core), then park on the condvar in bounded slices until the watchdog
    /// deadline. The slices also bound the cost of the one benign race the
    /// handshake leaves: a notification skipped because the flag store and
    /// the counter load crossed costs at most one slice, never a hang.
    template <typename Ready>
    void wait_until(const char* op, std::atomic<bool>& waiting_flag,
                    std::condition_variable& cv, Ready&& ready,
                    altis::metrics::counter& (*blocked_ns)()) {
        for (int spin = 0; spin < 64; ++spin) {
            if (ready()) return;
        }
        // Past the free spins the caller is measurably blocked on its peer;
        // meter everything from here (yields included) as blocked time.
        const bool metered = altis::metrics::collecting();
        const auto blocked_from = metered
                                      ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point{};
        const auto meter_blocked = [&] {
            if (!metered) return;
            blocked_ns().add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - blocked_from)
                    .count()));
        };
        for (int yields = 0; yields < 16; ++yields) {
            std::this_thread::yield();
            if (ready()) {
                meter_blocked();
                return;
            }
        }
        if (metered) altis::metrics::instruments::pipe_parks().add();
        const auto deadline = std::chrono::steady_clock::now() + timeout_;
        constexpr auto kSlice = std::chrono::milliseconds(1);
        std::unique_lock lock(mutex_);
        waiting_flag.store(true, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        for (;;) {
            if (ready()) break;
            // A parked endpoint must stay cancellable: the bounded slices
            // double as cancellation checkpoints, so a blocked pipe op wakes
            // within ~kSlice of a deadline/SIGINT instead of riding out the
            // full watchdog timeout.
            if (altis::resilience::cancellation_requested()) {
                waiting_flag.store(false, std::memory_order_relaxed);
                meter_blocked();
                altis::resilience::checkpoint();  // raises cancelled_error
            }
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline) {
                waiting_flag.store(false, std::memory_order_relaxed);
                meter_blocked();
                throw pipe_deadlock(deadlock_message(op));
            }
            cv.wait_for(lock, std::min<std::chrono::steady_clock::duration>(
                                  kSlice, deadline - now));
        }
        waiting_flag.store(false, std::memory_order_relaxed);
        meter_blocked();
    }

    std::string deadlock_message(const char* op) const {
        return "pipe '" + name_ + "' " + op + " timed out after " +
               std::to_string(timeout_.count()) + " ms (capacity " +
               std::to_string(capacity_) + ", occupancy " +
               std::to_string(occupancy()) + "/" + std::to_string(capacity_) +
               ") -- are both kernels running in a dataflow group?";
    }

    /// An injected stall behaves as if the peer kernel never made progress:
    /// this operation blocks for the full watchdog timeout, then collapses
    /// through the ordinary deadlock path.
    void maybe_injected_stall(const char* op) {
        if (!altis::fault::should_stall_pipe(name_)) return;
        const auto deadline = std::chrono::steady_clock::now() + timeout_;
        constexpr auto kSlice = std::chrono::milliseconds(1);
        std::unique_lock lock(mutex_);
        // Sliced like wait_until so an injected hang is still cancellable
        // by the deadline supervisor (the hang-injection tests depend on a
        // small --deadline-ms cutting a huge pipe timeout short).
        for (;;) {
            altis::resilience::checkpoint();
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline) break;
            stall_cv_.wait_for(lock,
                               std::min<std::chrono::steady_clock::duration>(
                                   kSlice, deadline - now),
                               [] { return false; });
        }
        throw pipe_deadlock("[injected stall] " + deadlock_message(op));
    }

    std::size_t capacity_;
    std::string name_;
    std::chrono::milliseconds timeout_;
    std::vector<T> ring_;

    /// Consumer-published position; on its own cache line so producer
    /// polling does not bounce the consumer's working set.
    alignas(64) std::atomic<std::uint64_t> head_{0};
    /// Producer-published position.
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    /// Producer-owned mirror of tail_ plus its cached view of head_ (only
    /// refreshed when the ring looks full) -- the fast path reads no line
    /// the consumer writes.
    alignas(64) std::uint64_t tail_pos_ = 0;
    std::uint64_t head_cache_ = 0;
    std::atomic<bool> producer_waiting_{false};
    /// Consumer-owned mirrors, dual of the producer's.
    alignas(64) std::uint64_t head_pos_ = 0;
    std::uint64_t tail_cache_ = 0;
    std::atomic<bool> consumer_waiting_{false};

    /// Parking lot: touched only after the spin/yield budget is exhausted
    /// (empty/full ring or injected stall), never on the per-element path.
    alignas(64) mutable std::mutex mutex_;
    std::condition_variable not_full_, not_empty_, stall_cv_;
};

}  // namespace syclite
