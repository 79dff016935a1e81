// Cooperative cancellation for the sweep supervisor. One process-wide
// cancel_token is observed at the runtime's natural preemption points
// (thread-pool chunk claims, pipe waits, queue submissions) and raised as a
// structured cancelled_error; a deadline_scope arms a wall-clock budget
// around one configuration so a hung config dies cleanly instead of
// wedging the whole sweep (paper Sec. 5: multi-hour FPGA campaigns).
//
// Design constraints the layout serves:
//  - the disabled path (no deadline armed, nothing cancelled) costs one
//    relaxed atomic load -- the fig sweeps and the golden gates run through
//    the same checkpoints with zero behavioral change;
//  - cancel() is async-signal-safe (lock-free atomic stores only), so the
//    SIGINT/SIGTERM handler can cancel the current configuration directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace altis::resilience {

/// Why the token fired. `deadline` is latched by the token itself when the
/// armed budget expires; `interrupt` comes from the signal handler.
enum class cancel_reason : std::uint32_t {
    none = 0,
    manual = 1,
    deadline = 2,
    interrupt = 3,
};

[[nodiscard]] const char* to_string(cancel_reason r);

/// Raised from a checkpoint once the token is cancelled. Distinct from
/// fault::injected_fault on purpose: the supervisor's retry loop classifies
/// it as a non-retryable `deadline`/`cancelled` outcome instead of burning
/// retries.
class cancelled_error : public std::runtime_error {
public:
    cancelled_error(cancel_reason r, const std::string& msg)
        : std::runtime_error(msg), reason_(r) {}
    [[nodiscard]] cancel_reason reason() const noexcept { return reason_; }

private:
    cancel_reason reason_;
};

class cancel_token {
public:
    /// One relaxed load on the disabled path; checks the armed deadline
    /// (and latches expiry) otherwise. Safe to call from any thread.
    [[nodiscard]] bool should_stop() noexcept {
        const std::uint32_t s = state_.load(std::memory_order_acquire);
        if (s == 0) return false;  // not armed, nothing cancelled
        if ((s & 1U) != 0U) return true;
        return deadline_expired();
    }

    /// Latch a cancellation. Async-signal-safe: lock-free atomic ops only.
    void cancel(cancel_reason r = cancel_reason::manual) noexcept {
        latch(r, clock_ns());
    }

    [[nodiscard]] cancel_reason reason() const noexcept {
        return static_cast<cancel_reason>(
            reason_.load(std::memory_order_acquire));
    }

    /// Throws cancelled_error when cancelled (records the cancellation
    /// latency histogram while metrics collect); returns otherwise.
    void raise_if_cancelled();

    /// Arm a wall-clock budget of `ms` from now (ms <= 0 arms no deadline
    /// but still marks the token active). Paired with disarm().
    void arm(double ms) noexcept;
    /// Ends the armed stretch. A latched *deadline* cancellation is cleared
    /// so the next configuration starts fresh; manual/interrupt
    /// cancellations persist (the whole sweep is being torn down).
    void disarm() noexcept;

    /// The armed budget in ms (0 when none); for messages.
    [[nodiscard]] double budget_ms() const noexcept {
        return static_cast<double>(budget_us_.load(std::memory_order_relaxed)) /
               1e3;
    }

    /// Test support: clear every latch, including manual/interrupt.
    void reset() noexcept;

private:
    [[nodiscard]] static std::uint64_t clock_ns() noexcept {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    bool deadline_expired() noexcept;
    void latch(cancel_reason r, std::uint64_t now) noexcept;

    /// bit 0: cancelled; bits 1..: armed-scope count (in steps of 2).
    std::atomic<std::uint32_t> state_{0};
    std::atomic<std::uint32_t> reason_{0};
    /// steady_clock ns of the first cancel observation (0 = unset; CAS from
    /// 0 keeps the earliest, so latency is measured from the true origin).
    std::atomic<std::uint64_t> cancel_ns_{0};
    /// steady_clock deadline (0 = none armed).
    std::atomic<std::uint64_t> deadline_ns_{0};
    std::atomic<std::uint64_t> budget_us_{0};
};

namespace detail {
/// The process-wide token. Constant-initialized (atomics only) so the
/// signal handler can reach it without static-init-order hazards.
extern cancel_token g_token;
}  // namespace detail

[[nodiscard]] inline cancel_token& current() noexcept {
    return detail::g_token;
}

/// Non-throwing fast gate for worker loops that must unwind by returning
/// (pool workers break out of their chunk loop; the submitting thread then
/// raises from checkpoint()).
[[nodiscard]] inline bool cancellation_requested() noexcept {
    return detail::g_token.should_stop();
}

/// Throwing checkpoint for host-side control flow: raises cancelled_error
/// when the process token is cancelled, else a single relaxed load.
inline void checkpoint() {
    if (cancellation_requested()) detail::g_token.raise_if_cancelled();
}

/// RAII per-configuration deadline on the process token. deadline_ms <= 0
/// is a no-op scope (checkpoints stay on their one-load fast path).
class deadline_scope {
public:
    explicit deadline_scope(double deadline_ms) : armed_(deadline_ms > 0.0) {
        if (armed_) current().arm(deadline_ms);
    }
    ~deadline_scope() {
        if (armed_) current().disarm();
    }
    deadline_scope(const deadline_scope&) = delete;
    deadline_scope& operator=(const deadline_scope&) = delete;

private:
    bool armed_;
};

/// Install SIGINT/SIGTERM handlers that cancel the process token (reason
/// `interrupt`) and record the signal; the sweep loops observe
/// interrupted() between configurations, flush their journal/report and
/// exit 128+signal instead of corrupting a resumable run.
void install_signal_cancellation();
/// True once a handled signal arrived.
[[nodiscard]] bool interrupted() noexcept;
/// The signal number (0 when none); exit code is 128 + this.
[[nodiscard]] int interrupt_signal() noexcept;

}  // namespace altis::resilience
