// Span model, session bookkeeping and queue emission: ordering/nesting on
// the simulated clock, dataflow overlap, and agreement between the trace's
// aggregates and the queue's own two-counter decomposition.
#include "trace/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "apps/common/region.hpp"
#include "apps/kmeans/kmeans.hpp"
#include "sycl/syclite.hpp"

namespace altis::trace {
namespace {

perf::kernel_stats named_stats(const char* name) {
    perf::kernel_stats k;
    k.name = name;
    k.fp32_ops = 4.0;
    k.bytes_read = 8.0;
    k.bytes_written = 4.0;
    return k;
}

TEST(Session, RegionsNestAndRecordOnClose) {
    session s("t");
    s.begin_region("outer", 0.0);
    s.begin_region("inner", 10.0);
    EXPECT_EQ(s.open_regions(), 2);
    s.end_region(50.0);  // closes inner
    s.end_region(100.0);
    ASSERT_EQ(s.spans().size(), 2u);
    EXPECT_EQ(s.spans()[0].name, "inner");
    EXPECT_EQ(s.spans()[1].name, "outer");
    // Nesting on the clock: inner is contained in outer.
    EXPECT_GE(s.spans()[0].start_ns, s.spans()[1].start_ns);
    EXPECT_LE(s.spans()[0].end_ns, s.spans()[1].end_ns);
    EXPECT_THROW(s.end_region(0.0), std::logic_error);
}

TEST(Session, CurrentIsScoped) {
    EXPECT_EQ(session::current(), nullptr);
    {
        session a("a");
        session::scope sa(a);
        EXPECT_EQ(session::current(), &a);
        {
            session b("b");
            session::scope sb(b);
            EXPECT_EQ(session::current(), &b);
        }
        EXPECT_EQ(session::current(), &a);
    }
    EXPECT_EQ(session::current(), nullptr);
}

TEST(QueueTrace, KernelSpansAreNamedOrderedAndSumToKernelNs) {
    session s("t");
    session::scope scope(s);
    syclite::queue q("rtx_2080");
    syclite::buffer<int> b(256);
    for (const char* name : {"alpha", "beta", "alpha"}) {
        q.submit([&](syclite::handler& h) {
            auto acc = h.get_access(b, syclite::access_mode::discard_write);
            h.parallel_for(syclite::nd_range<1>(syclite::range<1>(256),
                                                syclite::range<1>(64)),
                           named_stats(name), [=](syclite::nd_item<1> it) {
                               acc[it.get_global_id(0)] = 1;
                           });
        });
    }
    q.wait();

    ASSERT_EQ(s.device(), &q.device());
    std::vector<std::string> kernel_names;
    double prev_end = 0.0;
    for (const auto& sp : s.spans()) {
        // Main-lane spans tile the simulated clock without gaps or overlap.
        EXPECT_NEAR(sp.start_ns, prev_end, 1e-9);
        EXPECT_GE(sp.end_ns, sp.start_ns);
        prev_end = sp.end_ns;
        if (sp.kind == span_kind::kernel) kernel_names.push_back(sp.name);
    }
    EXPECT_EQ(kernel_names, (std::vector<std::string>{"alpha", "beta", "alpha"}));
    EXPECT_NEAR(s.kernel_ns(), q.kernel_ns(), 1e-9);
    EXPECT_NEAR(s.non_kernel_ns(), q.non_kernel_ns(), 1e-9);
    EXPECT_NEAR(s.last_end_ns(), q.sim_now_ns(), 1e-9);
}

TEST(QueueTrace, KernelSpanCarriesModelCounters) {
    session s("t");
    session::scope scope(s);
    syclite::queue q("a100");
    syclite::buffer<int> b(128);
    perf::kernel_stats k = named_stats("counted");
    k.occupancy = 0.5;
    k.divergence = 0.25;
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(b, syclite::access_mode::discard_write);
        h.parallel_for(
            syclite::nd_range<1>(syclite::range<1>(128), syclite::range<1>(64)),
            k, [=](syclite::nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
    });
    const auto it = std::find_if(
        s.spans().begin(), s.spans().end(),
        [](const span& sp) { return sp.kind == span_kind::kernel; });
    ASSERT_NE(it, s.spans().end());
    EXPECT_EQ(it->name, "counted");
    EXPECT_DOUBLE_EQ(it->counters.flops, 4.0 * 128.0);
    EXPECT_DOUBLE_EQ(it->counters.bytes, 12.0 * 128.0);
    EXPECT_DOUBLE_EQ(it->counters.occupancy, 0.5);
    EXPECT_DOUBLE_EQ(it->counters.divergence, 0.25);
}

TEST(QueueTrace, TransferSetupAndOverheadBecomeTypedSpans) {
    session s("t");
    session::scope scope(s);
    syclite::queue q("rtx_2080");
    q.charge_setup();
    std::vector<float> host(1024, 1.0f);
    syclite::buffer<float> b(host.size());
    q.copy_to_device(b, host.data());
    q.annotate_overhead_ns(500.0);
    q.wait();

    ASSERT_EQ(s.spans().size(), 4u);
    EXPECT_EQ(s.spans()[0].kind, span_kind::setup);
    EXPECT_EQ(s.spans()[1].kind, span_kind::transfer);
    EXPECT_DOUBLE_EQ(s.spans()[1].counters.bytes, 4096.0);
    EXPECT_EQ(s.spans()[2].kind, span_kind::overhead);
    EXPECT_DOUBLE_EQ(s.spans()[2].duration_ns(), 500.0);
    EXPECT_EQ(s.spans()[3].kind, span_kind::sync);
    EXPECT_NEAR(s.non_kernel_ns(), q.non_kernel_ns(), 1e-9);
}

TEST(QueueTrace, DataflowSpansOverlapOnSeparateLanes) {
    session s("t");
    session::scope scope(s);
    syclite::queue q("stratix_10");
    syclite::buffer<int> out(100);
    syclite::pipe<int> p(16);
    q.begin_dataflow();
    q.submit([&](syclite::handler& h) {
        perf::kernel_stats k = named_stats("producer");
        k.writes_pipe = true;
        perf::loop_info loop;
        loop.trip_count = 1e6;
        k.loops.push_back(loop);
        h.single_task(k, [&p]() {
            for (int i = 0; i < 100; ++i) p.write(i);
        });
    });
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(out, syclite::access_mode::discard_write);
        perf::kernel_stats k = named_stats("consumer");
        k.reads_pipe = true;
        perf::loop_info loop;
        loop.trip_count = 100;
        k.loops.push_back(loop);
        h.single_task(k, [&p, acc]() {
            for (int i = 0; i < 100; ++i) acc[i] = p.read();
        });
    });
    q.end_dataflow();

    const span* group = nullptr;
    std::vector<const span*> kernels;
    for (const auto& sp : s.spans()) {
        if (sp.kind == span_kind::dataflow_group) group = &sp;
        if (sp.kind == span_kind::kernel) kernels.push_back(&sp);
    }
    ASSERT_NE(group, nullptr);
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_EQ(group->name, "dataflow:producer:consumer");
    // Overlap: both kernels launch together on distinct lanes inside the
    // group envelope; the envelope ends with the slowest member.
    EXPECT_DOUBLE_EQ(kernels[0]->start_ns, kernels[1]->start_ns);
    EXPECT_NE(kernels[0]->track, kernels[1]->track);
    EXPECT_GT(kernels[0]->track, 0);
    const double slowest =
        std::max(kernels[0]->end_ns, kernels[1]->end_ns);
    EXPECT_DOUBLE_EQ(group->end_ns, slowest);
    // The queue's kernel counter is the group wall, not the lane sum.
    EXPECT_NEAR(s.kernel_ns(), q.kernel_ns(), 1e-9);
    EXPECT_LE(q.kernel_ns() + 1e-9,
              kernels[0]->duration_ns() + kernels[1]->duration_ns());
}

TEST(QueueTrace, SecondQueueAppendsAfterFirst) {
    session s("t");
    session::scope scope(s);
    double first_end = 0.0;
    {
        syclite::queue q("rtx_2080");
        q.charge_setup();
        first_end = s.last_end_ns();
        EXPECT_GT(first_end, 0.0);
    }
    syclite::queue q2("rtx_2080");
    q2.charge_setup();
    const auto& last = s.spans().back();
    EXPECT_NEAR(last.start_ns, first_end, 1e-9);  // appended, not overlapped
}

TEST(QueueTrace, EventsCarryKernelNamesWithoutASession) {
    ASSERT_EQ(session::current(), nullptr);
    syclite::queue q("rtx_2080");
    syclite::buffer<int> b(64);
    const syclite::event k = q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(b, syclite::access_mode::discard_write);
        h.parallel_for(
            syclite::nd_range<1>(syclite::range<1>(64), syclite::range<1>(64)),
            named_stats("lonely"),
            [=](syclite::nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
    });
    std::vector<float> host(16, 0.0f);
    syclite::buffer<float> fb(host.size());
    const syclite::event c = q.copy_to_device(fb, host.data());
    EXPECT_EQ(k.name(), "lonely");
    EXPECT_EQ(c.name(), "");  // transfers are anonymous commands
}

/// FNV-1a 64 over a span's identity and the bit patterns of its timestamps
/// and counters, chained across spans.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <typename T>
std::uint64_t fnv1a(const T& v, std::uint64_t h) {
    static_assert(std::is_trivially_copyable_v<T>);
    return fnv1a(&v, sizeof v, h);
}

std::uint64_t span_digest(const std::vector<span>& spans) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const span& sp : spans) {
        h = fnv1a(static_cast<int>(sp.kind), h);
        h = fnv1a(sp.name.size(), h);
        h = fnv1a(sp.name.data(), sp.name.size(), h);
        h = fnv1a(sp.track, h);
        h = fnv1a(sp.cmd, h);
        h = fnv1a(sp.deps.size(), h);
        for (const std::uint64_t d : sp.deps) h = fnv1a(d, h);
        for (const double v : {sp.start_ns, sp.end_ns, sp.counters.flops,
                               sp.counters.bytes, sp.counters.occupancy,
                               sp.counters.divergence,
                               sp.counters.invocations})
            h = fnv1a(std::bit_cast<std::uint64_t>(v), h);
        h = fnv1a(sp.counters.initiation_interval, h);
    }
    return h;
}

/// Every span the queue's three command paths emit, pinned bit for bit:
/// an in-order queue, an out-of-order graph (lanes, copies, explicit and
/// implied edges, the join's epoch envelope) and a piped dataflow group
/// (member lanes, group envelope, launch drain). The digest was recorded
/// before the queue's timeline bookkeeping was consolidated; no modeled
/// timestamp may move.
TEST(QueueTrace, SpanDigestAcrossQueuePaths) {
    using syclite::access_mode;
    using syclite::handler;
    // Heavy enough (O(100 us) modeled) that independent graph kernels
    // overlap past the per-submit launch overhead.
    constexpr std::size_t n = std::size_t{1} << 16;
    const auto range = syclite::nd_range<1>(syclite::range<1>(n),
                                            syclite::range<1>(64));
    auto heavy = [](const char* name) {
        perf::kernel_stats k = named_stats(name);
        k.fp32_ops = 20000.0;
        return k;
    };
    session s("t");
    session::scope scope(s);
    std::vector<float> host(n, 1.0f);
    {
        // Every queue below then starts at a nonzero session offset, as in
        // a multi-app session: each span endpoint is a sum with the offset.
        syclite::queue warm("rtx_2080");
        warm.charge_setup();
    }

    // In-order: setup, copy, kernels, overhead, sync.
    syclite::queue inorder("rtx_2080");
    syclite::buffer<float> ib(n);
    inorder.charge_setup();
    inorder.copy_to_device(ib, host.data());
    for (const char* name : {"scale", "shift"})
        inorder.submit([&](handler& h) {
            auto acc = h.get_access(ib, access_mode::read_write);
            h.parallel_for(range, heavy(name), [=](syclite::nd_item<1> it) {
                acc[it.get_global_id(0)] += 1.0f;
            });
        });
    inorder.annotate_overhead_ns(250.0);
    inorder.wait();

    // Out-of-order: two independent kernels, a depends_on consumer, raw
    // copies in and out.
    const double ooo_base = s.last_end_ns();
    syclite::queue ooo("rtx_2080", syclite::queue_property::out_of_order);
    syclite::buffer<float> a(n), b(n), c(n);
    std::vector<float> back(n, 0.0f);
    const syclite::event in = ooo.copy_to_device(a, host.data());
    auto produce = [&](syclite::buffer<float>& buf, const char* name) {
        return ooo.submit([&](handler& h) {
            auto acc = h.get_access(buf, access_mode::discard_write);
            h.parallel_for(range, heavy(name), [=](syclite::nd_item<1> it) {
                acc[it.get_global_id(0)] = 2.0f;
            });
        });
    };
    const syclite::event pb = produce(b, "left");
    const syclite::event pc = produce(c, "right");
    const syclite::event sum = ooo.submit([&](handler& h) {
        h.depends_on(pb);
        auto x = h.get_access(c, access_mode::read);
        auto y = h.get_access(a, access_mode::read_write);
        h.parallel_for(range, heavy("join"), [=](syclite::nd_item<1> it) {
            y[it.get_global_id(0)] += x[it.get_global_id(0)];
        });
    });
    const syclite::event out = ooo.copy_from_device(a, back.data());
    ooo.wait();
    EXPECT_EQ(back[0], 3.0f);

    // Dataflow: a three-stage pipe chain.
    syclite::queue df("stratix_10");
    syclite::pipe<int> p1(16), p2(16);
    syclite::buffer<int> sink(100);
    auto stage = [](const char* name, bool reads, bool writes, double trips) {
        perf::kernel_stats k = named_stats(name);
        k.reads_pipe = reads;
        k.writes_pipe = writes;
        perf::loop_info loop;
        loop.trip_count = trips;
        k.loops.push_back(loop);
        return k;
    };
    df.begin_dataflow();
    df.submit([&](handler& h) {
        h.single_task(stage("src", false, true, 1e5), [&p1] {
            for (int i = 0; i < 100; ++i) p1.write(i);
        });
    });
    df.submit([&](handler& h) {
        h.single_task(stage("mid", true, true, 1e3), [&p1, &p2] {
            for (int i = 0; i < 100; ++i) p2.write(p1.read() * 2);
        });
    });
    df.submit([&](handler& h) {
        auto acc = h.get_access(sink, access_mode::discard_write);
        h.single_task(stage("dst", true, false, 100), [&p2, acc] {
            for (int i = 0; i < 100; ++i) acc[i] = p2.read();
        });
    });
    const std::vector<syclite::event> members = df.end_dataflow();
    ASSERT_EQ(members.size(), 3u);

    // Structure: graph kernels on lanes >= 2, graph copies on lane 1, span
    // ids equal to event ids, the consumer's edges naming its producers.
    auto by_cmd = [&](const syclite::event& e) -> const span& {
        const auto it = std::find_if(
            s.spans().begin(), s.spans().end(),
            [&](const span& sp) { return sp.cmd == e.command_id(); });
        if (it == s.spans().end())
            throw std::runtime_error("no span for command " +
                                     std::to_string(e.command_id()));
        return *it;
    };
    for (const syclite::event& e : {in, pb, pc, sum, out}) {
        ASSERT_NE(e.command_id(), 0u);
        const span& sp = by_cmd(e);
        EXPECT_EQ(sp.cmd, e.command_id());
        EXPECT_EQ(sp.start_ns, ooo_base + e.profiling_start_ns());
        EXPECT_EQ(sp.end_ns, ooo_base + e.profiling_end_ns());
    }
    EXPECT_EQ(by_cmd(in).track, 1);
    EXPECT_EQ(by_cmd(out).track, 1);
    for (const syclite::event& e : {pb, pc, sum}) {
        EXPECT_EQ(by_cmd(e).kind, span_kind::kernel);
        EXPECT_GE(by_cmd(e).track, 2);
    }
    EXPECT_NE(by_cmd(pb).track, by_cmd(pc).track);  // overlapped on lanes
    const std::vector<std::uint64_t>& deps = by_cmd(sum).deps;
    for (const syclite::event& e : {in, pb, pc})
        EXPECT_NE(std::find(deps.begin(), deps.end(), e.command_id()),
                  deps.end())
            << "join lacks an edge to command " << e.command_id();
    auto named = [&](const char* name) {
        return std::count_if(s.spans().begin(), s.spans().end(),
                             [&](const span& sp) { return sp.name == name; });
    };
    EXPECT_GE(named("graph epoch"), 1);
    EXPECT_EQ(named("launch drain"), 1);
    EXPECT_EQ(named("dataflow:src:mid:dst"), 1);
    EXPECT_NEAR(s.kernel_ns(),
                inorder.kernel_ns() + ooo.kernel_ns() + df.kernel_ns(), 1e-9);

    EXPECT_EQ(span_digest(s.spans()), 0xd70bd160ba003aa6ULL)
        << std::hex << "digest 0x" << span_digest(s.spans());
}

TEST(RegionTrace, SimulatedRegionEmitsBalancedSpans) {
    const auto& dev = perf::device_by_name("stratix_10");
    const auto region =
        apps::kmeans::region(Variant::fpga_opt, dev, 1);
    session s("t");
    const auto est =
        apps::simulate_region(region, dev, perf::runtime_kind::sycl, &s);

    ASSERT_FALSE(s.empty());
    const span& reg = s.spans().back();
    EXPECT_EQ(reg.kind, span_kind::region);
    EXPECT_EQ(reg.name, "kmeans/fpga_opt/size1");
    // The region span covers exactly the simulated total, and the session's
    // decomposition reproduces the estimate's two counters.
    EXPECT_NEAR(reg.duration_ns(), est.total_ns(), 1e-6);
    EXPECT_NEAR(s.kernel_ns(), est.kernel_ns, 1e-6);
    EXPECT_NEAR(s.non_kernel_ns(), est.non_kernel_ns, 1e-6);
    // Dataflow design: pipe kernels overlap on separate lanes.
    std::vector<const span*> lanes;
    for (const auto& sp : s.spans())
        if (sp.kind == span_kind::kernel && sp.track > 0) lanes.push_back(&sp);
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_DOUBLE_EQ(lanes[0]->start_ns, lanes[1]->start_ns);
}

TEST(RegionTrace, SuccessiveSimulationsAppend) {
    const auto& dev = perf::device_by_name("rtx_2080");
    const auto region = apps::kmeans::region(Variant::sycl_opt, dev, 1);
    session s("t");
    (void)apps::simulate_region(region, dev, perf::runtime_kind::sycl, &s);
    const double first_end = s.last_end_ns();
    (void)apps::simulate_region(region, dev, perf::runtime_kind::sycl, &s);
    const span& second_region = s.spans().back();
    EXPECT_NEAR(second_region.start_ns, first_end, 1e-9);
}

TEST(RegionTrace, DefaultOverloadUsesCurrentSession) {
    const auto& dev = perf::device_by_name("rtx_2080");
    const auto region = apps::kmeans::region(Variant::sycl_opt, dev, 1);
    session s("t");
    {
        session::scope scope(s);
        (void)apps::simulate_region(region, dev, perf::runtime_kind::sycl);
    }
    EXPECT_FALSE(s.empty());
    // And without a current session, nothing is collected anywhere.
    (void)apps::simulate_region(region, dev, perf::runtime_kind::sycl);
}

}  // namespace
}  // namespace altis::trace
