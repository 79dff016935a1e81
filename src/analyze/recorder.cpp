#include "analyze/recorder.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <sstream>

namespace altis::analyze {

const char* to_string(level lv) {
    switch (lv) {
        case level::off: return "off";
        case level::warn: return "warn";
        case level::error: return "error";
    }
    return "?";
}

namespace {

std::string hex_ptr(const void* p) {
    std::ostringstream os;
    os << p;
    return os.str();
}

/// Atomic because the probe reads it from pool/dataflow worker threads (the
/// TSan job covers this path).
std::atomic<recorder*> g_current{nullptr};

}  // namespace

recorder* recorder::current() { return g_current.load(std::memory_order_acquire); }
void recorder::set_current(recorder* r) {
    recorder* prev = g_current.exchange(r, std::memory_order_acq_rel);
    // Publish the new session's shadow store (the hook-side gate), then
    // settle the outgoing session: finalize flushes every thread's open
    // run tables so its intervals are complete before any analysis.
    shadow::detail::set_current_store(r != nullptr ? r->shadow_.get()
                                                   : nullptr);
    if (prev != nullptr && prev != r) prev->shadow_->finalize();
}

int recorder::register_queue(const perf::device_spec& /*dev*/) {
    std::lock_guard lock(mu_);
    return next_queue_++;
}

recorder::cg_handle recorder::begin_command_group() {
    std::lock_guard lock(mu_);
    cg_handle h;
    h.id = next_cg_++;
    h.token = probe::new_token(h.id);
    h.actor = shadow_->new_actor();
    live_tokens_.emplace(h.id, h.token);
    cg_actor_.emplace(h.id, h.actor);
    return h;
}

void recorder::retire(std::uint64_t cg) {
    std::lock_guard lock(mu_);
    const auto it = live_tokens_.find(cg);
    if (it == live_tokens_.end()) return;
    it->second->retired.store(true, std::memory_order_relaxed);
    live_tokens_.erase(it);
}

int recorder::begin_group() {
    std::lock_guard lock(mu_);
    return next_group_++;
}

void recorder::add_node(node n, const std::vector<int>& graph_deps) {
    std::lock_guard lock(mu_);
    if (n.kind == node_kind::kernel && n.cg != 0)
        cg_kernel_[n.cg] = n.kernel;
    if (!n.simulated) {
        // Declared ranges anchor the stable "mem#N" labels findings use.
        for (const mem_access& a : n.accesses)
            shadow_->register_region(a.base, a.bytes);
        if (n.kind == node_kind::kernel && n.cg != 0) {
            const auto it = cg_actor_.find(n.cg);
            if (it != cg_actor_.end()) {
                n.actor = it->second;
                shadow_->name_actor(n.actor, n.kernel);
                submit_locked(n.actor, n.queue, n.group >= 0,
                              n.ooo ? &graph_deps : nullptr);
            }
        }
    }
    graph_.nodes.push_back(std::move(n));
}

void recorder::submit_locked(int actor, int queue, bool dataflow,
                             const std::vector<int>* graph_deps) {
    unjoined& u = unjoined_[queue];
    if (graph_deps != nullptr) {
        shadow_->on_submit(actor, *graph_deps);
    } else {
        shadow_->on_submit(actor, {u.actors.data(), u.preceding});
        // The new command covers every actor it joined: those completed
        // before it started, so joining it later joins them too.
        if (!dataflow) u.actors.clear();
    }
    u.actors.push_back(actor);
    if (!dataflow) u.preceding = u.actors.size();
}

int recorder::record_transfer(int queue, node_kind kind, const void* base,
                              std::size_t bytes,
                              const std::vector<int>* graph_deps) {
    const bool in = kind == node_kind::transfer_in;
    node n;
    n.kind = kind;
    n.queue = queue;
    n.accesses.push_back(
        {base, bytes, in ? access::write : access::read, mem_kind::buffer});
    std::lock_guard lock(mu_);
    if (graph_deps != nullptr) {
        n.ooo = true;
        n.actor = shadow_->new_actor();
        shadow_->name_actor(n.actor, in ? "transfer_in" : "transfer_out");
        submit_locked(n.actor, queue, /*dataflow=*/false, graph_deps);
    }
    shadow_->on_transfer(base, bytes, in,
                         n.ooo ? n.actor : shadow::kHostActor);
    shadow_->register_region(base, bytes);
    const int actor = n.actor;
    graph_.nodes.push_back(std::move(n));
    return actor;
}

void recorder::join_host(int queue) {
    std::lock_guard lock(mu_);
    unjoined& u = unjoined_[queue];
    shadow_->on_host_join(u.actors);
    u.actors.clear();
    u.preceding = 0;
}

void recorder::record_wait(int queue, bool ooo, std::size_t pending) {
    join_host(queue);
    node n;
    n.kind = node_kind::wait;
    n.queue = queue;
    n.ooo = ooo;
    n.pending = pending;
    std::lock_guard lock(mu_);
    graph_.nodes.push_back(std::move(n));
}

void recorder::record_usm_alloc(const void* base, std::size_t bytes,
                                std::uint64_t generation) {
    node n;
    n.kind = node_kind::usm_alloc;
    n.accesses.push_back(
        {base, bytes, access::write, mem_kind::usm, generation});
    add_node(std::move(n));
}

void recorder::record_usm_free(const void* base, std::uint64_t generation) {
    node n;
    n.kind = node_kind::usm_free;
    n.accesses.push_back({base, 0, access::write, mem_kind::usm, generation});
    add_node(std::move(n));
}

void recorder::record_simulated_kernel(const perf::kernel_stats& stats,
                                       const perf::device_spec& dev) {
    node n;
    n.kind = node_kind::kernel;
    n.kernel = stats.name;
    n.stats = stats;
    n.device = &dev;
    n.simulated = true;
    add_node(std::move(n));
}

void recorder::add_finding(finding f) {
    std::lock_guard lock(mu_);
    runtime_.add(std::move(f));
}

void recorder::stale_accessor_use(std::uint64_t cg, const void* base) {
    std::lock_guard lock(mu_);
    const auto key = std::make_pair(cg, base);
    if (std::find(stale_reported_.begin(), stale_reported_.end(), key) !=
        stale_reported_.end())
        return;
    stale_reported_.push_back(key);
    const auto it = cg_kernel_.find(cg);
    const std::string kernel =
        it != cg_kernel_.end() ? it->second : "command group #" + std::to_string(cg);
    runtime_.add(make_finding(
        "ALS-H3", kernel, hex_ptr(base),
        "accessor created in command group #" + std::to_string(cg) +
            " dereferenced after the group completed"));
}

std::vector<node> recorder::group_nodes(int group) const {
    std::lock_guard lock(mu_);
    std::vector<node> out;
    for (const node& n : graph_.nodes)
        if (n.kind == node_kind::kernel && n.group == group) out.push_back(n);
    return out;
}

namespace probe {

namespace {

/// Process-lifetime token arena: tokens must outlive any accessor that holds
/// one, and accessors routinely outlive the recorder scope in tests, so
/// tokens are never reclaimed. One submission costs ~16 bytes here, only
/// while a sanitize session is active.
std::mutex g_arena_mu;
std::deque<cg_token> g_arena;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

}  // namespace

cg_token* new_token(std::uint64_t id) {
    std::lock_guard lock(g_arena_mu);
    g_arena.emplace_back();
    g_arena.back().id = id;
    return &g_arena.back();
}

void on_stale_use(const cg_token* token, const void* base) {
    recorder* r = recorder::current();
    if (r == nullptr) return;
    r->stale_accessor_use(token->id, base);
}

}  // namespace probe

}  // namespace altis::analyze
