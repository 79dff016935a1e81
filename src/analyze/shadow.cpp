#include "analyze/shadow.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <unordered_set>

#include "metrics/instruments.hpp"

namespace altis::analyze::shadow {

namespace detail {

namespace {

/// One open coalescing run: an access stream by one actor into one base
/// pointer, still growing. lo/hi are absolute byte addresses.
struct run {
    const void* base = nullptr;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    int actor = kNoActor;
    bool write = false;
    bool open = false;
};

/// Per-thread run table. Kernels typically alternate between a handful of
/// accessors, so a small direct-mapped table with round-robin eviction keeps
/// the hot path to a linear scan of 6 entries.
struct thread_runs {
    store* owner = nullptr;
    std::array<run, 6> runs{};
    unsigned next_evict = 0;
};

/// Registry of every thread's run table, so store::finalize() can close
/// runs left open by pool workers that are parked (not dead) when the
/// session ends. Reading another thread's table from finalize() is ordered
/// by construction: finalize only runs after every kernel of the session
/// completed, and kernel completion synchronizes with the host through the
/// pool's job-drain mutex (or the dataflow thread join).
std::mutex g_reg_mu;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)
std::vector<thread_runs*> g_registry;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)
std::unordered_set<store*> g_live_stores;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Owns the thread's run table and deregisters it when the thread dies
/// (flushing any runs that still belong to a live store).
struct tls_holder {
    thread_runs tr;
    tls_holder() {
        std::lock_guard lock(g_reg_mu);
        g_registry.push_back(&tr);
    }
    ~tls_holder();
};

thread_local tls_holder t_storage;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

}  // namespace

}  // namespace detail

// ---- store ----------------------------------------------------------------

store::store() {
    actor_clock_.emplace_back();  // actor 0: the host
    actor_clock_[0].tick(kHostActor);
    clock_id_.push_back(-1);
    actor_name_.emplace_back("host");
    {
        std::lock_guard lock(detail::g_reg_mu);
        detail::g_live_stores.insert(this);
    }
}

store::~store() {
    finalize();
    std::lock_guard lock(detail::g_reg_mu);
    detail::g_live_stores.erase(this);
}

int store::new_actor() {
    std::lock_guard lock(mu_);
    const int actor = static_cast<int>(actor_clock_.size());
    actor_clock_.emplace_back();
    clock_id_.push_back(-1);
    actor_name_.emplace_back("kernel #" + std::to_string(actor));
    return actor;
}

void store::name_actor(int actor, const std::string& kernel) {
    std::lock_guard lock(mu_);
    if (actor > 0 && actor < static_cast<int>(actor_name_.size()))
        actor_name_[actor] = kernel;
}

std::uint32_t store::intern_locked(int actor) {
    if (clock_id_[actor] >= 0) return static_cast<std::uint32_t>(clock_id_[actor]);
    clocks_.push_back(actor_clock_[actor]);
    clock_id_[actor] = static_cast<int>(clocks_.size()) - 1;
    return static_cast<std::uint32_t>(clock_id_[actor]);
}

void store::push_interval_locked(std::uint64_t lo, std::uint64_t hi, int actor,
                                 bool write) {
    if (lo >= hi || actor < 0 ||
        actor >= static_cast<int>(actor_clock_.size()))
        return;
    intervals_.push_back({lo, hi, actor, write, intern_locked(actor)});
    detail::g_intervals_flushed.fetch_add(1, std::memory_order_relaxed);
    if (altis::metrics::collecting())
        altis::metrics::instruments::sanitize_shadow_intervals().add();
}

void store::flush_run(const void* /*base*/, std::uint64_t lo, std::uint64_t hi,
                      int actor, bool write) {
    std::lock_guard lock(mu_);
    push_interval_locked(lo, hi, actor, write);
}

namespace detail {

namespace {

/// Closes every open run of `tr` that belongs to `s`. Caller guarantees the
/// runs are quiescent (same thread, or the session-teardown ordering above).
void flush_table(thread_runs& tr, store* s) {
    if (tr.owner != s) return;
    for (run& r : tr.runs) {
        if (!r.open) continue;
        s->flush_run(r.base, r.lo, r.hi, r.actor, r.write);
        r.open = false;
    }
}

/// Flushes the calling thread's runs for `s` -- the prelude to every clock
/// event, preserving the "runs flush under the clock they ran under"
/// invariant (header comment).
void flush_calling_thread(store* s) { flush_table(t_storage.tr, s); }

tls_holder::~tls_holder() {  // NOLINT(modernize-use-equals-default)
    std::lock_guard lock(g_reg_mu);
    if (tr.owner != nullptr && g_live_stores.count(tr.owner) > 0)
        flush_table(tr, tr.owner);
    g_registry.erase(std::remove(g_registry.begin(), g_registry.end(), &tr),
                     g_registry.end());
}

}  // namespace

void record(store* s, const void* base, std::size_t off, std::size_t len,
            bool write) {
    thread_runs& tr = t_storage.tr;
    if (tr.owner != s) {
        // First touch under a (possibly new) session: settle any runs still
        // owned by a previous store, then adopt the current one.
        std::lock_guard lock(g_reg_mu);
        if (tr.owner != nullptr && g_live_stores.count(tr.owner) > 0)
            flush_table(tr, tr.owner);
        for (run& r : tr.runs) r.open = false;
        tr.owner = s;
    }
    const int actor = tl_actor;
    const auto b = reinterpret_cast<std::uint64_t>(base);
    const std::uint64_t lo = b + off;
    const std::uint64_t hi = lo + len;
    for (run& r : tr.runs) {
        if (!r.open || r.base != base || r.write != write || r.actor != actor)
            continue;
        if (lo >= r.lo && hi <= r.hi) return;  // already covered
        if (lo <= r.hi && hi >= r.lo) {        // overlaps or extends
            r.lo = std::min(r.lo, lo);
            r.hi = std::max(r.hi, hi);
            return;
        }
        // Disjoint from the existing run: close it, restart in place.
        s->flush_run(r.base, r.lo, r.hi, r.actor, r.write);
        r.lo = lo;
        r.hi = hi;
        return;
    }
    for (run& r : tr.runs) {
        if (r.open) continue;
        r = {base, lo, hi, actor, write, true};
        return;
    }
    run& victim = tr.runs[tr.next_evict++ % tr.runs.size()];
    s->flush_run(victim.base, victim.lo, victim.hi, victim.actor, victim.write);
    victim = {base, lo, hi, actor, write, true};
}

void set_current_store(store* s) {
    g_store.store(s, std::memory_order_release);
}

}  // namespace detail

void store::on_submit(int actor, std::span<const int> deps) {
    detail::flush_calling_thread(this);
    std::lock_guard lock(mu_);
    if (actor <= 0 || actor >= static_cast<int>(actor_clock_.size())) return;
    vector_clock& k = actor_clock_[actor];
    k.join(actor_clock_[kHostActor]);  // host clock *before* its tick
    // Every dependency completes before this command starts (an in-order
    // predecessor ran synchronously, a dataflow group was joined, a graph
    // node only dispatches after its edges settle), so everything it did --
    // including what it has not flushed yet, stamped with a clock no newer
    // than read here -- happens-before this command. Joining its current
    // clock is therefore a sound (possibly under-approximating, never
    // over-approximating) edge.
    for (const int d : deps)
        if (d > 0 && d < static_cast<int>(actor_clock_.size()))
            k.join(actor_clock_[d]);
    k.tick(static_cast<std::size_t>(actor));
    dirty_locked(actor);
    actor_clock_[kHostActor].tick(kHostActor);
    dirty_locked(kHostActor);
}

void store::on_host_join(std::span<const int> actors) {
    detail::flush_calling_thread(this);
    std::lock_guard lock(mu_);
    for (const int a : actors)
        if (a > 0 && a < static_cast<int>(actor_clock_.size()))
            actor_clock_[kHostActor].join(actor_clock_[a]);
    actor_clock_[kHostActor].tick(kHostActor);
    dirty_locked(kHostActor);
}

void store::on_transfer(const void* base, std::size_t bytes, bool write,
                        int actor) {
    detail::flush_calling_thread(this);
    std::lock_guard lock(mu_);
    const auto lo = reinterpret_cast<std::uint64_t>(base);
    push_interval_locked(lo, lo + bytes, actor, write);
}

void store::register_region(const void* base, std::size_t bytes) {
    if (bytes == 0) return;
    std::lock_guard lock(mu_);
    const auto lo = reinterpret_cast<std::uint64_t>(base);
    for (region& r : regions_) {
        if (r.lo != lo) continue;
        r.hi = std::max(r.hi, lo + bytes);
        return;
    }
    regions_.push_back({lo, lo + bytes, static_cast<int>(regions_.size())});
}

void store::finalize() {
    std::lock_guard reg_lock(detail::g_reg_mu);
    if (detail::g_live_stores.count(this) == 0) return;
    for (detail::thread_runs* tr : detail::g_registry)
        detail::flush_table(*tr, this);
    std::lock_guard lock(mu_);
    finalized_ = true;
}

// ---- pipe hooks -----------------------------------------------------------

void on_pipe_publish(const void* pipe, const char* name, std::uint64_t from,
                     std::uint64_t to) {
    store* s = detail::g_store.load(std::memory_order_acquire);
    if (s == nullptr || to <= from) return;
    detail::flush_calling_thread(s);
    const int actor = detail::tl_actor;
    std::lock_guard lock(s->mu_);
    if (actor < 0 || actor >= static_cast<int>(s->actor_clock_.size())) return;
    pipe_log& log = s->pipes_[pipe];
    if (log.name.empty()) log.name = name;
    log.producer = actor;
    // Snapshot first (covers everything produced so far), then tick so the
    // producer's next accesses are distinguishable from this publication.
    log.pubs.push_back({to, s->intern_locked(actor)});
    s->actor_clock_[actor].tick(static_cast<std::size_t>(actor));
    s->dirty_locked(actor);
}

void on_pipe_consume(const void* pipe, const char* name,
                     std::uint64_t recv_from, std::uint64_t from,
                     std::uint64_t to) {
    store* s = detail::g_store.load(std::memory_order_acquire);
    if (s == nullptr || to <= from) return;
    detail::flush_calling_thread(s);
    const int actor = detail::tl_actor;
    std::lock_guard lock(s->mu_);
    if (actor < 0 || actor >= static_cast<int>(s->actor_clock_.size())) return;
    pipe_log& log = s->pipes_[pipe];
    if (log.name.empty()) log.name = name;
    log.consumer = actor;
    // One record per logical receive: a later chunk of the same read_burst
    // extends it, so ALS-R2 judges what the kernel asked for, not how much
    // the producer happened to have published when it asked.
    if (recv_from < from && !log.recvs.empty())
        log.recvs.back().to = to;
    else
        log.recvs.push_back({from, to});
    // Join the earliest publication covering the last consumed item:
    // producer clocks are monotone, so that one snapshot dominates every
    // earlier publication this receive also drew from.
    const pipe_pub* covering = nullptr;
    for (const pipe_pub& p : log.pubs) {
        if (p.upto >= to) {
            covering = &p;
            break;
        }
    }
    if (covering == nullptr && !log.pubs.empty()) covering = &log.pubs.back();
    if (covering != nullptr) {
        s->actor_clock_[actor].join(s->clocks_[covering->clock]);
        // Fully consumed publications can never be the covering snapshot of
        // a later receive; drop them to bound memory on long streams.
        while (!log.pubs.empty() && log.pubs.front().upto <= to)
            log.pubs.pop_front();
    }
    s->actor_clock_[actor].tick(static_cast<std::size_t>(actor));
    s->dirty_locked(actor);
}

// ---- analysis-side --------------------------------------------------------

std::vector<interval> store::merged_intervals() const {
    std::lock_guard lock(mu_);
    std::vector<interval> out = intervals_;
    // Pool workers split one kernel's sweep into per-thread runs at
    // nondeterministic boundaries, but all pieces carry the same (actor,
    // write, clock) stamp: merging adjacent/overlapping pieces per stamp
    // restores a canonical, run-stable interval set.
    std::sort(out.begin(), out.end(), [](const interval& a, const interval& b) {
        if (a.actor != b.actor) return a.actor < b.actor;
        if (a.write != b.write) return a.write < b.write;
        if (a.clock != b.clock) return a.clock < b.clock;
        if (a.lo != b.lo) return a.lo < b.lo;
        return a.hi < b.hi;
    });
    std::vector<interval> merged;
    for (const interval& iv : out) {
        if (!merged.empty()) {
            interval& last = merged.back();
            if (last.actor == iv.actor && last.write == iv.write &&
                last.clock == iv.clock && iv.lo <= last.hi) {
                last.hi = std::max(last.hi, iv.hi);
                continue;
            }
        }
        merged.push_back(iv);
    }
    std::sort(merged.begin(), merged.end(),
              [](const interval& a, const interval& b) {
                  if (a.lo != b.lo) return a.lo < b.lo;
                  if (a.hi != b.hi) return a.hi < b.hi;
                  if (a.actor != b.actor) return a.actor < b.actor;
                  return a.write < b.write;
              });
    return merged;
}

bool store::hb(const interval& a, const interval& b) const {
    std::lock_guard lock(mu_);
    // a's local time at the access is its own component in its snapshot;
    // b has seen it iff b's snapshot carries at least that component.
    const std::uint64_t t = clocks_[a.clock].get(static_cast<std::size_t>(a.actor));
    return clocks_[b.clock].get(static_cast<std::size_t>(a.actor)) >= t;
}

const std::string& store::actor_name(int actor) const {
    std::lock_guard lock(mu_);
    static const std::string unknown = "?";
    if (actor < 0 || actor >= static_cast<int>(actor_name_.size()))
        return unknown;
    return actor_name_[actor];
}

std::string store::label_range(std::uint64_t lo, std::uint64_t hi) const {
    std::lock_guard lock(mu_);
    for (const region& r : regions_) {
        if (lo < r.lo || lo >= r.hi) continue;
        return "mem#" + std::to_string(r.ordinal) + "[" +
               std::to_string(lo - r.lo) + ".." + std::to_string(hi - r.lo) +
               ")";
    }
    std::ostringstream os;  // wild range: raw (run-dependent) fallback
    os << "0x" << std::hex << lo << "+" << std::dec << (hi - lo) << "B";
    return os.str();
}

std::size_t store::interval_count() const {
    std::lock_guard lock(mu_);
    return intervals_.size();
}

}  // namespace altis::analyze::shadow
