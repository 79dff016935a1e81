// Observed-access shadow tracking -- the capture half of the ALS-R*/ALS-D1
// race rules. While a sanitize session is active, accessor element accesses,
// instrumented USM reads/writes (observe_read/observe_write) and buffer
// transfers are recorded as coalesced per-thread byte intervals, each
// stamped with the vector clock of the actor that made it. One rule orders
// commands on every queue path -- a command joins the host clock plus its
// dependency actors' current clocks, a synchronization is the host joining
// a set of actors (docs/SANITIZER.md, "The happens-before model") -- and
// pipe counter publications add the edges between running kernels.
//
// Cost model (mirrors metrics::collecting()): with no recorder current the
// hooks are one relaxed atomic load and a never-taken branch -- no shadow
// cell is allocated, nothing is logged (the zero-overhead contract pinned by
// tests/analyze/test_race.cpp). With a session active the hot path appends
// to a small thread-local run table; an interval reaches the store (one
// mutex acquisition) only when a run closes: on a clock event of the calling
// actor, on slot eviction, or at session teardown.
//
// Soundness invariant: an actor's clock is only ever advanced from the
// actor's own thread (pipe publish/consume) or from the host thread (a
// submission, before the actor runs, and host joins), and every such event
// first flushes the calling thread's open runs. An open run's accesses
// therefore always flush under the exact clock they were made under.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyze/clock.hpp"

namespace altis::analyze::shadow {

class store;

/// Actor 0 is the host thread; kernel submissions get actors > 0.
inline constexpr int kHostActor = 0;
/// "No actor": hooks fire as the host, and actor_scope is a no-op.
inline constexpr int kNoActor = -1;

namespace detail {

/// Store of the process-wide current sanitize session (published by
/// recorder::set_current); null means every hook is a cheap no-op.
inline std::atomic<store*> g_store{nullptr};  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Actor executing on this thread. The queue binds it around kernel
/// execution; the thread pool propagates it to workers per job.
inline thread_local int tl_actor = kHostActor;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Process-lifetime count of intervals flushed into any store -- the
/// zero-overhead contract's witness: with no session active it must not
/// move, no matter how many accessor elements are dereferenced.
inline std::atomic<std::uint64_t> g_intervals_flushed{0};  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Out-of-line slow path: coalesce [base+off, base+off+len) into the
/// calling thread's run table for `s`.
void record(store* s, const void* base, std::size_t off, std::size_t len,
            bool write);

void set_current_store(store* s);

}  // namespace detail

/// True while a sanitize session records observed accesses.
[[nodiscard]] inline bool tracking() {
    return detail::g_store.load(std::memory_order_acquire) != nullptr;
}

[[nodiscard]] inline int current_actor() { return detail::tl_actor; }

/// Binds the executing actor to the current thread (RAII). kNoActor leaves
/// the binding untouched -- the hot constructor is two thread-local writes
/// and is used unconditionally on the kernel dispatch path.
class actor_scope {
public:
    explicit actor_scope(int actor) : prev_(detail::tl_actor) {
        if (actor >= 0) detail::tl_actor = actor;
    }
    ~actor_scope() { detail::tl_actor = prev_; }
    actor_scope(const actor_scope&) = delete;
    actor_scope& operator=(const actor_scope&) = delete;

private:
    int prev_;
};

/// Accessor hot-path hook (accessor::operator[]): no-op without a session.
inline void on_accessor_access(const void* base, std::size_t off,
                               std::size_t len, bool write) {
    store* s = detail::g_store.load(std::memory_order_acquire);
    if (s == nullptr) return;
    detail::record(s, base, off, len, write);
}

/// Instrumented-app USM hooks: a kernel (or host code) touching raw USM
/// memory records the access here; the declaration-drift rule ALS-D1 then
/// checks it against what the command group declared via uses_usm().
inline void observe_read(const void* ptr, std::size_t bytes) {
    on_accessor_access(ptr, 0, bytes, /*write=*/false);
}
inline void observe_write(const void* ptr, std::size_t bytes) {
    on_accessor_access(ptr, 0, bytes, /*write=*/true);
}

/// Pipe counter-publication hooks (SPSC monotonic positions, elements in
/// [from, to)). Publish snapshots the producer's clock *before* ticking it,
/// so the snapshot covers everything the producer did up to and including
/// the published items; consume joins the covering snapshot into the
/// consumer *before* ticking, so everything the consumer does next
/// happens-after the production of what it read. A read_burst consumes in
/// chunks as items arrive: each chunk joins, but `recv_from` (the position
/// the read call started at) keeps the whole call one receive record.
/// Gate on tracking() first.
void on_pipe_publish(const void* pipe, const char* name, std::uint64_t from,
                     std::uint64_t to);
void on_pipe_consume(const void* pipe, const char* name,
                     std::uint64_t recv_from, std::uint64_t from,
                     std::uint64_t to);

/// One closed observed-access interval: absolute byte range [lo, hi),
/// stamped with the acting actor and its interned clock snapshot.
struct interval {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    int actor = kHostActor;
    bool write = false;
    std::uint32_t clock = 0;  ///< index into store::clocks()
};

/// Producer-side publication: ring positions up to `upto` are covered by
/// clock snapshot `clock`.
struct pipe_pub {
    std::uint64_t upto = 0;
    std::uint32_t clock = 0;
};

/// One logical consumer-side receive (a read/try_read/read_burst call) of
/// positions [from, to).
struct pipe_recv {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
};

/// Everything observed about one pipe (keyed by the pipe object's address,
/// matching handler::reads_pipe/writes_pipe declarations).
struct pipe_log {
    std::string name;
    int producer = kNoActor;  ///< actor observed publishing
    int consumer = kNoActor;  ///< actor observed consuming
    std::deque<pipe_pub> pubs;  ///< not yet fully consumed publications
    std::vector<pipe_recv> recvs;
};

/// The shadow store of one sanitize session (owned by analyze::recorder).
/// All state is guarded by one mutex; only the thread-local run tables in
/// shadow.cpp are lock-free.
class store {
public:
    store();
    ~store();
    store(const store&) = delete;
    store& operator=(const store&) = delete;

    // ---- clock events (called by the recorder on the host thread) ----

    /// Allocates the next actor ordinal (kernel submissions).
    int new_actor();
    /// Names an actor after its kernel (reported in findings).
    void name_actor(int actor, const std::string& kernel);
    /// Command submission -- the one happens-before rule for every queue
    /// path: K = join(host, deps...); tick K; tick host. `deps` are the
    /// actors the command is ordered after (the in-order predecessor, the
    /// commands before a dataflow group, or a graph node's edges); their
    /// *current* clocks are joined, so whatever they published on a pipe
    /// while running is covered too.
    void on_submit(int actor, std::span<const int> deps);
    /// Synchronization (queue::wait, end_dataflow, graph join, event::wait,
    /// buffer write-back): the host joins the given actors' current clocks,
    /// then ticks.
    void on_host_join(std::span<const int> actors);
    /// Transfer touching [base, base+bytes), recorded under `actor`'s
    /// current clock: the host for a host-side copy, the copy's own actor
    /// (after on_submit) for an asynchronous graph transfer.
    void on_transfer(const void* base, std::size_t bytes, bool write,
                     int actor = kHostActor);
    /// Registers a declared memory region (accessor span, USM allocation,
    /// observe_* target): the source of the stable "mem#N" labels findings
    /// use instead of raw (ASLR-dependent) pointers.
    void register_region(const void* base, std::size_t bytes);

    /// Flushes every thread's open runs for this store (idempotent; called
    /// when the session stops being current and before analysis).
    void finalize();

    /// Closes one coalesced run into the interval log. Not an app-facing
    /// API: only the thread-local run tables in shadow.cpp call it, but it
    /// must be public because those tables flush from free functions (the
    /// registry walk in finalize(), thread-exit cleanup).
    void flush_run(const void* base, std::uint64_t lo, std::uint64_t hi,
                   int actor, bool write);

    // ---- analysis-side API (after finalize) ----

    /// All intervals, merged per (actor, write, clock) and sorted by
    /// (lo, hi, actor, write): deterministic across runs even though pool
    /// workers carve up kernels nondeterministically.
    [[nodiscard]] std::vector<interval> merged_intervals() const;
    /// a happens-before b?
    [[nodiscard]] bool hb(const interval& a, const interval& b) const;
    [[nodiscard]] const std::string& actor_name(int actor) const;
    /// Stable label for [lo, hi): "mem#N[a..b)" relative to the containing
    /// registered region, or a hex fallback for wild ranges.
    [[nodiscard]] std::string label_range(std::uint64_t lo,
                                          std::uint64_t hi) const;
    [[nodiscard]] const std::unordered_map<const void*, pipe_log>& pipe_logs()
        const {
        return pipes_;
    }
    [[nodiscard]] std::size_t interval_count() const;

private:
    friend void detail::record(store*, const void*, std::size_t, std::size_t,
                               bool);
    friend void on_pipe_publish(const void*, const char*, std::uint64_t,
                                std::uint64_t);
    friend void on_pipe_consume(const void*, const char*, std::uint64_t,
                                std::uint64_t, std::uint64_t);

    struct region {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        int ordinal = 0;
    };

    /// Interns the current clock of `actor`; caches until the clock moves.
    /// Caller holds mu_.
    std::uint32_t intern_locked(int actor);
    void dirty_locked(int actor) { clock_id_[actor] = -1; }
    void push_interval_locked(std::uint64_t lo, std::uint64_t hi, int actor,
                              bool write);

    mutable std::mutex mu_;
    std::vector<vector_clock> actor_clock_;   ///< index = actor
    std::vector<int> clock_id_;               ///< cached intern id, -1 dirty
    std::vector<std::string> actor_name_;
    std::vector<vector_clock> clocks_;        ///< interned snapshots
    std::vector<region> regions_;
    std::vector<interval> intervals_;
    std::unordered_map<const void*, pipe_log> pipes_;
    bool finalized_ = false;
};

}  // namespace altis::analyze::shadow
