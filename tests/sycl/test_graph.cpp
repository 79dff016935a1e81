// Out-of-order command-graph scheduler: explicit event edges, accessor- and
// USM-implied edges, targeted event::wait() joins, deterministic simulated
// timelines, asynchronous error delivery at graph joins, and cancellation of
// queued-but-unstarted nodes. The randomized DAG stress runs the *same*
// seeded program through an in-order and an out-of-order queue (the latter
// on a real multi-worker pool) and requires byte-identical buffer contents;
// the sanitize determinism test requires byte-identical findings JSON across
// back-to-back out-of-order runs. The whole binary runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/sanitize.hpp"
#include "fault/inject.hpp"
#include "metrics/instruments.hpp"
#include "metrics/session.hpp"
#include "resilience/cancel.hpp"
#include "sycl/syclite.hpp"

namespace syclite {
namespace {

perf::kernel_stats stats(const char* name) {
    perf::kernel_stats k;
    k.name = name;
    k.fp32_ops = 2.0;
    k.bytes_read = 4.0;
    k.bytes_written = 4.0;
    return k;
}

/// Overlap tests need modeled durations well above the per-submit launch
/// overhead (~15 us on the GPU models): a kernel shorter than the gap
/// between two submissions can never overlap its predecessor, because the
/// successor's submit timestamp is already past the predecessor's end.
/// ~1.3e9 modeled flops over 1<<16 items puts each kernel at O(100 us).
constexpr std::size_t kBig = std::size_t{1} << 16;

perf::kernel_stats heavy_stats(const char* name) {
    perf::kernel_stats k = stats(name);
    k.fp32_ops = 20000.0;
    return k;
}

// ---- timeline semantics ---------------------------------------------------

TEST(GraphSched, InOrderQueueEventsCarryNoGraphNode) {
    queue q("rtx_2080");  // default property: in_order
    EXPECT_TRUE(q.is_in_order());
    buffer<int> b(64);
    event e = q.submit([&](handler& h) {
        auto acc = h.get_access(b, access_mode::discard_write);
        h.parallel_for(nd_range<1>(range<1>(64), range<1>(64)), stats("k"),
                       [=](nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
    });
    EXPECT_EQ(e.command_id(), 0u);
    e.wait();  // no-op, never blocks
    EXPECT_EQ(b.host_data()[0], 1);
}

TEST(GraphSched, IndependentKernelsOverlapInModeledTime) {
    queue q("rtx_2080", queue_property::out_of_order);
    EXPECT_FALSE(q.is_in_order());
    buffer<int> a(kBig), b(kBig);
    auto submit_into = [&](buffer<int>& dst, const char* name) {
        return q.submit([&](handler& h) {
            auto acc = h.get_access(dst, access_mode::discard_write);
            h.parallel_for(nd_range<1>(range<1>(kBig), range<1>(256)),
                           heavy_stats(name), [=](nd_item<1> it) {
                               acc[it.get_global_id(0)] = 2;
                           });
        });
    };
    event e1 = submit_into(a, "ka");
    event e2 = submit_into(b, "kb");
    // No conflicting accessors, no explicit edges: the scheduler places the
    // second kernel on its own lane, overlapping the first in modeled time.
    EXPECT_LT(e2.profiling_start_ns(), e1.profiling_end_ns());
    EXPECT_GT(e1.command_id(), 0u);
    EXPECT_GT(e2.command_id(), e1.command_id());
    q.wait();
    EXPECT_EQ(a.host_data()[255], 2);
    EXPECT_EQ(b.host_data()[255], 2);
}

TEST(GraphSched, AccessorConflictSerializesModeledTime) {
    queue q("rtx_2080", queue_property::out_of_order);
    buffer<int> b(128);
    auto bump = [&](const char* name) {
        return q.submit([&](handler& h) {
            auto acc = h.get_access(b, access_mode::read_write);
            h.parallel_for(nd_range<1>(range<1>(128), range<1>(64)),
                           stats(name), [=](nd_item<1> it) {
                               acc[it.get_global_id(0)] += 1;
                           });
        });
    };
    q.submit([&](handler& h) {
        auto acc = h.get_access(b, access_mode::discard_write);
        h.parallel_for(nd_range<1>(range<1>(128), range<1>(64)), stats("z"),
                       [=](nd_item<1> it) { acc[it.get_global_id(0)] = 0; });
    });
    event e1 = bump("inc1");
    event e2 = bump("inc2");
    // WAW/RAW on the same byte range: the implied edge serializes them even
    // on the out-of-order queue.
    EXPECT_GE(e2.profiling_start_ns(), e1.profiling_end_ns());
    q.wait();
    EXPECT_EQ(b.host_data()[0], 2);
}

TEST(GraphSched, DisjointUsmRangesOverlapOverlappingOnesDoNot) {
    queue q("rtx_2080", queue_property::out_of_order);
    int* p = malloc_device<int>(kBig, q);
    ASSERT_NE(p, nullptr);
    auto fill = [&](int* base, std::size_t n, const char* name) {
        return q.submit([&](handler& h) {
            h.uses_usm(base, n * sizeof(int), access_mode::write);
            h.parallel_for(nd_range<1>(range<1>(n), range<1>(256)),
                           heavy_stats(name), [=](nd_item<1> it) {
                               base[it.get_global_id(0)] = 1;
                           });
        });
    };
    event lo = fill(p, kBig / 2, "lo");
    event hi = fill(p + kBig / 2, kBig / 2, "hi");  // disjoint: overlaps lo
    event all = q.submit([&](handler& h) {  // overlaps both: after both
        h.uses_usm(p, kBig * sizeof(int), access_mode::read_write);
        h.parallel_for(nd_range<1>(range<1>(kBig), range<1>(256)),
                       heavy_stats("all"), [=](nd_item<1> it) {
                           p[it.get_global_id(0)] += 1;
                       });
    });
    EXPECT_LT(hi.profiling_start_ns(), lo.profiling_end_ns());
    EXPECT_GE(all.profiling_start_ns(), lo.profiling_end_ns());
    EXPECT_GE(all.profiling_start_ns(), hi.profiling_end_ns());
    q.wait();
    EXPECT_EQ(p[0], 2);
    EXPECT_EQ(p[kBig - 1], 2);
    usm_free(p, q);
}

TEST(GraphSched, TransfersGetTheirOwnSerialLane) {
    queue q("rtx_2080", queue_property::out_of_order);
    buffer<int> a(1024), b(1024);
    std::vector<int> ha(1024, 3), hb(1024, 4);
    event t1 = q.copy_to_device(a, ha.data());
    event t2 = q.copy_to_device(b, hb.data());
    // Independent transfers still serialize against each other (one modeled
    // PCIe lane), but both carry graph nodes.
    EXPECT_GT(t1.command_id(), 0u);
    EXPECT_GE(t2.profiling_start_ns(), t1.profiling_end_ns());
    q.wait();
    EXPECT_EQ(a.host_data()[0], 3);
    EXPECT_EQ(b.host_data()[0], 4);
}

TEST(GraphSched, KernelAccountingMatchesUnionOfOverlappingSpans) {
    queue q("rtx_2080", queue_property::out_of_order);
    buffer<int> a(kBig), b(kBig);
    auto submit_into = [&](buffer<int>& dst, const char* name) {
        return q.submit([&](handler& h) {
            auto acc = h.get_access(dst, access_mode::discard_write);
            h.parallel_for(nd_range<1>(range<1>(kBig), range<1>(256)),
                           heavy_stats(name), [=](nd_item<1> it) {
                               acc[it.get_global_id(0)] = 1;
                           });
        });
    };
    event e1 = submit_into(a, "ka");
    event e2 = submit_into(b, "kb");
    q.wait();
    // Overlapped spans fold in as their union, so total kernel time is less
    // than the serial sum, and the invariant kernel + non-kernel == total
    // still holds.
    const double serial_sum = e1.duration_ns() + e2.duration_ns();
    EXPECT_LT(q.kernel_ns(), serial_sum);
    EXPECT_GT(q.kernel_ns(), 0.0);
    EXPECT_NEAR(q.sim_now_ns(), q.kernel_ns() + q.non_kernel_ns(), 1e-6);
}

// ---- targeted joins and explicit edges ------------------------------------

TEST(GraphSched, EventWaitIsATargetedJoin) {
    queue q("rtx_2080", queue_property::out_of_order);
    buffer<int> a(64), b(64);
    std::atomic<int> b_ran{0};
    std::atomic<bool> open{false};
    event e_a = q.submit([&](handler& h) {
        auto acc = h.get_access(a, access_mode::discard_write);
        h.parallel_for(nd_range<1>(range<1>(64), range<1>(64)), stats("ka"),
                       [=](nd_item<1> it) { acc[it.get_global_id(0)] = 7; });
    });
    // kb sits behind a gate that opens only after e_a.wait() returned, so no
    // pool worker can run it early. The gate follows ka: it is not ready
    // before ka settles, and the join stops there, so it never runs the gate
    // itself. A join that drained the graph would wait out the gate's bound
    // and run kb.
    event gate = q.submit([&](handler& h) {
        h.depends_on(e_a);
        h.library_call(stats("gate"), [&] {
            const auto limit =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (!open.load(std::memory_order_acquire) &&
                   std::chrono::steady_clock::now() < limit)
                std::this_thread::yield();
        });
    });
    q.submit([&](handler& h) {
        h.depends_on(gate);
        auto acc = h.get_access(b, access_mode::discard_write);
        h.parallel_for(nd_range<1>(range<1>(64), range<1>(64)), stats("kb"),
                       [=, &b_ran](nd_item<1> it) {
                           b_ran.store(1, std::memory_order_relaxed);
                           acc[it.get_global_id(0)] = 8;
                       });
    });
    e_a.wait();  // joins ka (and only what ka depends on -- nothing)
    EXPECT_EQ(a.host_data()[0], 7);
    EXPECT_EQ(b_ran.load(std::memory_order_relaxed), 0)
        << "event::wait() joined commands submitted after its own";
    open.store(true, std::memory_order_release);
    q.wait();
    EXPECT_EQ(b.host_data()[0], 8);
}

TEST(GraphSched, DependsOnOrdersIndependentKernelsUnderRealConcurrency) {
    thread_pool pool(4);
    for (int round = 0; round < 20; ++round) {
        queue q("rtx_2080", queue_property::out_of_order);
        q.set_graph_pool(&pool);
        std::atomic<int> stage{0};
        bool saw_first = false;
        event e1 = q.submit([&](handler& h) {
            h.library_call(stats("first"), [&] {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                stage.store(1, std::memory_order_release);
            });
        });
        q.submit([&](handler& h) {
            h.depends_on(e1);  // no shared accessors: the only edge
            h.library_call(stats("second"), [&] {
                saw_first = stage.load(std::memory_order_acquire) == 1;
            });
        });
        q.wait();
        ASSERT_TRUE(saw_first) << "depends_on edge was not honored (round "
                               << round << ")";
    }
}

TEST(GraphSched, DependsOnAcrossQueuesJoinsForeignGraph) {
    // Regression: command ids are per-scheduler counters, so resolving a
    // foreign event's id against this queue's graph aliases an unrelated
    // node -- here producer and consumer are both node 1 of their own
    // schedulers, so the dep used to be self-filtered and the edge silently
    // vanished. Cross-queue depends_on now joins the foreign node at submit.
    thread_pool pool(4);
    for (int round = 0; round < 10; ++round) {
        queue q1("rtx_2080", queue_property::out_of_order);
        queue q2("rtx_2080", queue_property::out_of_order);
        q1.set_graph_pool(&pool);
        q2.set_graph_pool(&pool);
        std::atomic<int> stage{0};
        bool saw_first = false;
        event e1 = q1.submit([&](handler& h) {
            h.library_call(stats("producer"), [&] {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                stage.store(1, std::memory_order_release);
            });
        });
        q2.submit([&](handler& h) {
            h.depends_on(e1);  // foreign graph: must join q1's node
            h.library_call(stats("consumer"), [&] {
                saw_first = stage.load(std::memory_order_acquire) == 1;
            });
        });
        q2.wait();
        ASSERT_TRUE(saw_first) << "cross-queue depends_on ignored (round "
                               << round << ")";
        q1.wait();
    }
}

TEST(GraphSched, DependsOnForeignEventOnInOrderQueueWaits) {
    // An in-order queue executes synchronously, but a depends_on edge on an
    // out-of-order queue's event still needs a real join before the command
    // runs (previously the handler's deps were dropped on this path).
    thread_pool pool(4);
    queue ooo("rtx_2080", queue_property::out_of_order);
    ooo.set_graph_pool(&pool);
    queue inorder("rtx_2080");
    std::atomic<int> stage{0};
    event e = ooo.submit([&](handler& h) {
        h.library_call(stats("producer"), [&] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            stage.store(1, std::memory_order_release);
        });
    });
    bool saw_first = false;
    inorder.submit([&](handler& h) {
        h.depends_on(e);
        h.library_call(stats("consumer"), [&] {
            saw_first = stage.load(std::memory_order_acquire) == 1;
        });
    });
    EXPECT_TRUE(saw_first) << "in-order queue ignored a foreign graph event";
    ooo.wait();
}

TEST(GraphSched, DependencySettlingDuringSubmitWindowIsNotLost) {
    // Regression for a lost-wakeup race: a dependency that settles on a pool
    // worker while its dependent is still `held` (between enqueue() and
    // release() of the two-phase submit) must still decrement the
    // dependent's unmet count -- otherwise the node never becomes ready and
    // wait() hangs. Tiny kernels maximize the chance of settling inside the
    // submit-bookkeeping window; with the bug this test hangs within a few
    // hundred rounds.
    thread_pool pool(4);
    queue q("rtx_2080", queue_property::out_of_order);
    q.set_graph_pool(&pool);
    for (int round = 0; round < 300; ++round) {
        event e = q.submit([&](handler& h) {
            h.library_call(stats("tiny_dep"), [] {});
        });
        q.submit([&](handler& h) {
            h.depends_on(e);
            h.library_call(stats("dependent"), [] {});
        });
        q.wait();
    }
}

// ---- determinism ----------------------------------------------------------

/// One seeded program: `ops` random read-modify-write kernels over a small
/// set of buffers. Conflicting submissions are ordered by implied edges, so
/// the result must not depend on the queue's scheduling policy.
void run_seeded_dag(queue& q, std::deque<buffer<int>>& bufs,
                    std::uint32_t seed, int ops) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> pick(0, bufs.size() - 1);
    std::uniform_int_distribution<int> salt(1, 97);
    for (int op = 0; op < ops; ++op) {
        const std::size_t src = pick(rng);
        const std::size_t dst = pick(rng);
        const int k = salt(rng);
        buffer<int>& bs = bufs[src];
        buffer<int>& bd = bufs[dst];
        q.submit([&](handler& h) {
            auto as = h.get_access(bs, access_mode::read);
            auto ad = h.get_access(bd, access_mode::read_write);
            h.parallel_for(nd_range<1>(range<1>(64), range<1>(64)),
                           stats("mix"), [=](nd_item<1> it) {
                               const std::size_t i = it.get_global_id(0);
                               // Mixed in unsigned: the values overflow
                               // int after a few ops, and wraparound is
                               // only defined for unsigned arithmetic.
                               ad[i] = static_cast<int>(
                                   static_cast<unsigned>(ad[i]) * 31u +
                                   static_cast<unsigned>(as[i]) +
                                   static_cast<unsigned>(k));
                           });
        });
    }
    q.wait();
}

TEST(GraphSched, RandomizedDagMatchesInOrderByteForByte) {
    constexpr std::size_t kBufs = 6;
    constexpr int kOps = 48;
    thread_pool pool(4);
    for (std::uint32_t seed : {11u, 1234u, 987654u}) {
        std::vector<std::vector<int>> results;
        for (int mode = 0; mode < 2; ++mode) {
            queue q("rtx_2080", mode == 0 ? queue_property::in_order
                                          : queue_property::out_of_order);
            if (mode == 1) q.set_graph_pool(&pool);
            std::deque<buffer<int>> bufs;  // buffer is pinned (non-movable)
            for (std::size_t i = 0; i < kBufs; ++i) {
                bufs.emplace_back(64);
                for (std::size_t j = 0; j < 64; ++j)
                    bufs.back().host_data()[j] = static_cast<int>(i + j);
            }
            run_seeded_dag(q, bufs, seed, kOps);
            std::vector<int> flat;
            for (auto& b : bufs)
                flat.insert(flat.end(), b.host_data(), b.host_data() + 64);
            results.push_back(std::move(flat));
        }
        ASSERT_EQ(std::memcmp(results[0].data(), results[1].data(),
                              results[0].size() * sizeof(int)),
                  0)
            << "in-order and out-of-order runs diverged for seed " << seed;
    }
}

TEST(GraphSched, SanitizeJsonIsByteIdenticalAcrossOooRuns) {
    auto run_once = [] {
        altis::analyze::recorder rec;
        {
            altis::analyze::recorder::scope scope(rec);
            queue q("xeon_6128", queue_property::out_of_order);
            buffer<int> a(32), b(32);
            std::vector<int> init(32, 1);
            q.copy_to_device(a, init.data());
            event e = q.submit([&](handler& h) {
                auto aa = h.get_access(a, access_mode::read);
                auto ab = h.get_access(b, access_mode::discard_write);
                h.parallel_for(nd_range<1>(range<1>(32), range<1>(32)),
                               stats("scale"), [=](nd_item<1> it) {
                                   const std::size_t i = it.get_global_id(0);
                                   ab[i] = aa[i] * 2;
                               });
            });
            q.submit([&](handler& h) {
                h.depends_on(e);
                auto ab = h.get_access(b, access_mode::read_write);
                h.parallel_for(nd_range<1>(range<1>(32), range<1>(32)),
                               stats("shift"), [=](nd_item<1> it) {
                                   ab[it.get_global_id(0)] += 3;
                               });
            });
            q.wait();
            q.wait();  // deliberate: an edge-free graph join (ALS-L5)
        }
        std::ostringstream os;
        altis::analyze::run_all(rec).render_json(os);
        return os.str();
    };
    const std::string first = run_once();
    const std::string second = run_once();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("ALS-L5"), std::string::npos)
        << "expected the deliberate edge-free join to be reported:\n"
        << first;
}

// ---- errors and cancellation ----------------------------------------------

TEST(GraphSched, AsyncErrorsSurfaceAtGraphJoinInSubmitOrder) {
    altis::fault::plan p = altis::fault::plan::parse("launch:k1@1;launch:k3@1");
    altis::fault::scope s(p);
    std::vector<std::string> delivered;
    queue q("rtx_2080", perf::runtime_kind::sycl,
            [&](exception_list errors) {
                for (const auto& e : errors) {
                    try {
                        std::rethrow_exception(e);
                    } catch (const std::exception& ex) {
                        delivered.emplace_back(ex.what());
                    }
                }
            },
            queue_property::out_of_order);
    std::atomic<int> ran{0};
    auto named = [&](const char* n) {
        q.submit([&](handler& h) {
            h.library_call(stats(n),
                           [&] { ran.fetch_add(1, std::memory_order_relaxed); });
        });
    };
    named("k1");
    named("k2");
    named("k3");
    EXPECT_TRUE(delivered.empty());  // errors are asynchronous
    q.wait();
    ASSERT_EQ(delivered.size(), 2u);
    // Completion order under the scheduler is nondeterministic; delivery
    // order is not: errors drain sorted by submit index.
    EXPECT_NE(delivered[0].find("'k1'"), std::string::npos) << delivered[0];
    EXPECT_NE(delivered[1].find("'k3'"), std::string::npos) << delivered[1];
    EXPECT_EQ(ran.load(std::memory_order_relaxed), 1);  // only k2 executed

    delivered.clear();
    named("k4");  // the queue stays usable after delivery
    q.wait();
    EXPECT_TRUE(delivered.empty());
}

TEST(GraphSched, CancellationSkipsQueuedNodesAndRethrowsAtJoin) {
    namespace res = altis::resilience;
    res::current().reset();
    std::atomic<int> ran{0};
    std::atomic<bool> open{false};
    {
        queue q("rtx_2080", queue_property::out_of_order);
        // The chain sits behind a gate that holds until cancel() has been
        // issued, so no pool worker can dispatch a "queued" node before it.
        event prev = q.submit([&](handler& h) {
            h.library_call(stats("gate"), [&] {
                while (!open.load(std::memory_order_acquire))
                    std::this_thread::yield();
            });
        });
        for (int i = 0; i < 3; ++i)
            prev = q.submit([&](handler& h) {
                h.depends_on(prev);
                h.library_call(stats("queued"), [&] {
                    ran.fetch_add(1, std::memory_order_relaxed);
                });
            });
        // Cancel, open the gate, then drive dispatch through a targeted
        // join: every queued node must hit its dispatch checkpoint and be
        // cancelled, not executed.
        res::current().cancel(res::cancel_reason::manual);
        open.store(true, std::memory_order_release);
        prev.wait();
        EXPECT_EQ(ran.load(std::memory_order_relaxed), 0)
            << "a queued-but-unstarted node ran past the cancellation";
        res::current().reset();
        // The cancellation is reported at the queue's join even though the
        // token was already reset...
        EXPECT_THROW(q.wait(), res::cancelled_error);
        // ...and drains with the epoch: the queue keeps working.
        q.submit([&](handler& h) {
            h.library_call(stats("after"), [&] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        });
        q.wait();
        EXPECT_EQ(ran.load(std::memory_order_relaxed), 1);
    }
    res::current().reset();
}

TEST(GraphSched, SchedulerMetricsRecordNodesAndEdges) {
    namespace ins = altis::metrics::instruments;
    // Instruments only record under an active session (which zeroes them).
    altis::metrics::session s("sched-test", {/*sample_hz=*/0.0});
    const std::uint64_t nodes0 = ins::sched_nodes().value();
    const std::uint64_t edges0 = ins::sched_edges().value();
    queue q("rtx_2080", queue_property::out_of_order);
    buffer<int> b(64);
    event e1 = q.submit([&](handler& h) {
        auto acc = h.get_access(b, access_mode::discard_write);
        h.parallel_for(nd_range<1>(range<1>(64), range<1>(64)), stats("n1"),
                       [=](nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
    });
    q.submit([&](handler& h) {
        h.depends_on(e1);
        auto acc = h.get_access(b, access_mode::read_write);
        h.parallel_for(nd_range<1>(range<1>(64), range<1>(64)), stats("n2"),
                       [=](nd_item<1> it) { acc[it.get_global_id(0)] += 1; });
    });
    q.wait();
    EXPECT_EQ(ins::sched_nodes().value() - nodes0, 2u);
    // n2 -> n1: the explicit event edge and the implied accessor edge
    // deduplicate into one recorded edge.
    EXPECT_EQ(ins::sched_edges().value() - edges0, 1u);
}

}  // namespace
}  // namespace syclite
