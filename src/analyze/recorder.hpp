// The recorder is the capture side of altis::sanitize: a process-wide sink
// (mirroring trace::session's current()/scope wiring) that the syclite queue
// and the region simulator feed command-graph nodes into. Capture is
// thread-safe -- dataflow kernels retire their command groups from worker
// threads -- and entirely passive: with no recorder current, the runtime
// behaves (and times) exactly as before the analyzer existed.
//
// Every queue path (in-order, dataflow group, out-of-order graph) calls the
// same four entry points: add_node for a submission, record_transfer for a
// copy, join_host for a synchronization and record_wait for queue::wait().
// The recorder supplies the happens-before dependencies the paths differ in
// and hands the shadow store one rule (docs/SANITIZER.md).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyze/findings.hpp"
#include "analyze/graph.hpp"
#include "analyze/probe.hpp"
#include "analyze/shadow.hpp"

namespace altis::analyze {

/// Enforcement level of a sanitize session (the --sanitize flag).
enum class level { off, warn, error };

[[nodiscard]] const char* to_string(level lv);

class recorder {
public:
    explicit recorder(level lv = level::warn)
        : level_(lv), shadow_(std::make_unique<shadow::store>()) {}

    [[nodiscard]] level enforcement() const { return level_; }

    // ---- capture API (called by syclite / simulate_region) ----

    /// Registers a queue; nodes carry the returned ordinal so the passes
    /// never correlate commands across unrelated queues.
    int register_queue(const perf::device_spec& dev);

    struct cg_handle {
        std::uint64_t id = 0;
        probe::cg_token* token = nullptr;
        /// Shadow actor of the submission; the queue binds it around kernel
        /// execution so observed accesses attribute to this kernel.
        int actor = -1;
    };
    /// Opens a command group: assigns the next id and a live lifetime token
    /// for the accessors the group hands out.
    cg_handle begin_command_group();
    /// Marks the group's accessors stale (kernel finished or group dropped).
    void retire(std::uint64_t cg);

    /// Opens a dataflow group; members record the returned id.
    int begin_group();

    /// Appends a node. A kernel submission also becomes an actor: on an
    /// out-of-order graph (`n.ooo`) its dependencies are `graph_deps`, the
    /// shadow actors of the ticket's resolved edges; otherwise the queue's
    /// own -- the previous command or the last dataflow group's members, and
    /// for a dataflow member whatever preceded its group.
    void add_node(node n, const std::vector<int>& graph_deps = {});
    /// PCIe transfer node. Without `graph_deps` the copy is host-side and
    /// its range is recorded as a host access; with them it is an
    /// asynchronous graph copy: its own actor, ordered after those
    /// dependency actors, with the range recorded under it. Returns that
    /// actor (-1 for a host-side copy).
    int record_transfer(int queue, node_kind kind, const void* base,
                        std::size_t bytes,
                        const std::vector<int>* graph_deps = nullptr);
    /// Synchronization with a whole queue (queue::wait, end_dataflow, graph
    /// join, out-of-order queue teardown): the host joins every actor of
    /// `queue` it has not joined yet. event::wait joins its one node's actor
    /// through shadow().on_host_join directly.
    void join_host(int queue);
    /// queue::wait(): join_host(queue), then the wait node. `ooo` queues
    /// record `pending`, the commands in the graph when the join was issued
    /// (ALS-L5).
    void record_wait(int queue, bool ooo, std::size_t pending);
    void record_usm_alloc(const void* base, std::size_t bytes,
                          std::uint64_t generation = 0);
    void record_usm_free(const void* base, std::uint64_t generation = 0);
    /// Analytic descriptor from simulate_region: perf-lint rules only.
    void record_simulated_kernel(const perf::kernel_stats& stats,
                                 const perf::device_spec& dev);

    /// Runtime finding (ALS-H3 from the probe, pre-launch gate findings).
    void add_finding(finding f);
    /// Called by probe::on_stale_use; resolves the creating kernel's name
    /// and files an ALS-H3 finding once per (group, base).
    void stale_accessor_use(std::uint64_t cg, const void* base);

    // ---- analysis-side API ----

    [[nodiscard]] const command_graph& graph() const { return graph_; }
    /// Kernel nodes of one dataflow group (used by the pre-launch gate).
    [[nodiscard]] std::vector<node> group_nodes(int group) const;
    /// Findings raised during capture (merged into the final report).
    [[nodiscard]] const report& runtime_findings() const { return runtime_; }
    /// Observed-access shadow store of this session (ALS-R*/ALS-D1 input).
    [[nodiscard]] shadow::store& shadow() const { return *shadow_; }

    // ---- process-wide current recorder ----
    [[nodiscard]] static recorder* current();
    static void set_current(recorder* r);

    class scope {
    public:
        explicit scope(recorder& r) : prev_(current()) { set_current(&r); }
        ~scope() { set_current(prev_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        recorder* prev_;
    };

private:
    /// Makes `actor` a command of `queue` under the one rule and updates the
    /// queue's unjoined list. Caller holds mu_.
    void submit_locked(int actor, int queue, bool dataflow,
                       const std::vector<int>* graph_deps);

    level level_;
    mutable std::mutex mu_;
    command_graph graph_;
    report runtime_;
    int next_queue_ = 0;
    int next_group_ = 0;
    std::uint64_t next_cg_ = 1;
    std::unique_ptr<shadow::store> shadow_;
    std::unordered_map<std::uint64_t, probe::cg_token*> live_tokens_;
    std::unordered_map<std::uint64_t, std::string> cg_kernel_;
    std::unordered_map<std::uint64_t, int> cg_actor_;
    /// Per queue ordinal: actors the host has not joined yet, in
    /// submission order. Outside a dataflow group the next in-order command
    /// depends on all of them and then replaces them; `preceding` counts
    /// the entries before an open group's members, which are what each
    /// member depends on.
    struct unjoined {
        std::vector<int> actors;
        std::size_t preceding = 0;
    };
    std::unordered_map<int, unjoined> unjoined_;
    /// (cg, base) pairs already reported by the probe (dedup).
    std::vector<std::pair<std::uint64_t, const void*>> stale_reported_;
};

}  // namespace altis::analyze
