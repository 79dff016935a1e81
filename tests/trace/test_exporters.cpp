// Exporters and CLI wiring: the Chrome trace-event JSON must survive a
// round trip through a strict parser, the profile's aggregate math must
// reproduce the session's counters, and the shared flag table (argv -> env
// -> default, one range check) must behave like every harness binary
// expects.
#include "trace/chrome_export.hpp"
#include "trace/harness.hpp"
#include "trace/options.hpp"
#include "trace/profile.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "sycl/syclite.hpp"
#include "core/json.hpp"

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

void submit_kernel(syclite::queue& q, syclite::buffer<int>& b,
                   const perf::kernel_stats& k) {
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(b, syclite::access_mode::discard_write);
        h.parallel_for(
            syclite::nd_range<1>(syclite::range<1>(b.size()),
                                 syclite::range<1>(64)),
            k, [=](syclite::nd_item<1> it) { acc[it.get_global_id(0)] = 1; });
    });
}

/// A sequential + dataflow session exercising every span kind.
session make_session(double* queue_kernel_ns = nullptr) {
    session s("roundtrip");
    session::scope scope(s);
    syclite::queue q("stratix_10");
    q.charge_setup();
    syclite::buffer<int> b(256);
    std::vector<int> host(256, 0);
    q.copy_to_device(b, host.data());
    submit_kernel(q, b, named_stats("seq_kernel"));
    submit_kernel(q, b, named_stats("seq_kernel"));
    syclite::pipe<int> p(8);
    q.begin_dataflow();
    q.submit([&](syclite::handler& h) {
        perf::kernel_stats k = named_stats("producer");
        k.writes_pipe = true;
        h.single_task(k, [&p]() {
            for (int i = 0; i < 32; ++i) p.write(i);
        });
    });
    q.submit([&](syclite::handler& h) {
        auto acc = h.get_access(b, syclite::access_mode::discard_write);
        perf::kernel_stats k = named_stats("consumer");
        k.reads_pipe = true;
        h.single_task(k, [&p, acc]() {
            for (int i = 0; i < 32; ++i) acc[i] = p.read();
        });
    });
    q.end_dataflow();
    q.wait();
    if (queue_kernel_ns != nullptr) *queue_kernel_ns = q.kernel_ns();
    return s;
}

TEST(ChromeExport, RoundTripsThroughParser) {
    double queue_kernel_ns = 0.0;
    session s = make_session(&queue_kernel_ns);
    std::ostringstream out;
    write_chrome_json(s, out);

    const altis::json::value doc = altis::json::parse(out.str());
    EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");
    EXPECT_EQ(doc.at("otherData").at("session").as_string(), "roundtrip");
    EXPECT_EQ(doc.at("otherData").at("device").as_string(), "stratix_10");

    double kernel_us = 0.0;       // track-0 kernels + dataflow envelopes
    double dataflow_start = -1.0;
    int dataflow_lanes = 0;
    bool saw_seq_kernel = false;
    for (const auto& ev : doc.at("traceEvents").as_array()) {
        if (ev.at("ph").as_string() == "M") continue;  // thread_name labels
        EXPECT_EQ(ev.at("ph").as_string(), "X");
        EXPECT_GE(ev.at("dur").as_number(), 0.0);
        const std::string cat = ev.at("cat").as_string();
        const double tid = ev.at("tid").as_number();
        if (cat == "kernel" && tid == 1.0) {
            kernel_us += ev.at("dur").as_number();
            if (ev.at("name").as_string() == "seq_kernel") {
                saw_seq_kernel = true;
                EXPECT_GT(ev.at("args").at("modeled_bytes").as_number(), 0.0);
                EXPECT_GT(ev.at("args").at("modeled_gbs").as_number(), 0.0);
            }
        }
        if (cat == "dataflow_group") kernel_us += ev.at("dur").as_number();
        if (cat == "kernel" && tid > 1.0) {
            ++dataflow_lanes;
            if (dataflow_start < 0.0) dataflow_start = ev.at("ts").as_number();
            EXPECT_DOUBLE_EQ(ev.at("ts").as_number(), dataflow_start);
        }
    }
    EXPECT_TRUE(saw_seq_kernel);
    // Fig. 3 shape: the two pipe kernels render on distinct parallel lanes.
    EXPECT_EQ(dataflow_lanes, 2);
    // Named kernel spans (+ group envelopes) sum to the queue's counter; the
    // serialization is microseconds at stream precision, hence the relative
    // tolerance.
    EXPECT_NEAR(kernel_us * 1e3, queue_kernel_ns,
                queue_kernel_ns * 1e-4 + 1e-9);
}

TEST(ChromeExport, EscapesHostileNames) {
    session s("quote\" back\\slash\nnewline\ttab\x01ctl");
    s.begin_region("region \"r\" \\ one", 0.0);
    perf::kernel_stats k = named_stats("kernel\\with\"specials\"");
    s.record_kernel(k, 0.0, 10.0);
    s.end_region(10.0);
    // Every other control byte goes out as \u00xx, never raw.
    const std::string hostile = "q\"b\\s\x01" "c\rn\nt\t";
    s.begin_region(hostile, 10.0);
    s.end_region(12.0);
    std::ostringstream out;
    write_chrome_json(s, out);
    const altis::json::value doc = altis::json::parse(out.str());
    EXPECT_EQ(doc.at("otherData").at("session").as_string(),
              "quote\" back\\slash\nnewline\ttab\x01ctl");
    bool saw_kernel = false, saw_region = false, saw_hostile = false;
    for (const auto& ev : doc.at("traceEvents").as_array()) {
        if (ev.at("ph").as_string() != "X") continue;
        const std::string name = ev.at("name").as_string();
        if (name == "kernel\\with\"specials\"") saw_kernel = true;
        if (name == "region \"r\" \\ one") saw_region = true;
        if (name == hostile) saw_hostile = true;
    }
    EXPECT_TRUE(saw_kernel);
    EXPECT_TRUE(saw_region);
    EXPECT_TRUE(saw_hostile);
}

TEST(Profile, AggregateMathMatchesSession) {
    session s("agg");
    session::scope scope(s);
    syclite::queue q("rtx_2080");
    syclite::buffer<int> b(256);
    submit_kernel(q, b, named_stats("alpha"));
    submit_kernel(q, b, named_stats("alpha"));
    submit_kernel(q, b, named_stats("beta"));
    q.wait();

    const profile_report p = build_profile(s);
    EXPECT_EQ(p.device, "rtx_2080");
    ASSERT_EQ(p.kernels.size(), 2u);
    double sum_ns = 0.0, sum_pct = 0.0;
    for (const auto& k : p.kernels) {
        sum_ns += k.total_ns;
        sum_pct += k.pct_of_kernel;
        EXPECT_NEAR(k.mean_ns, k.total_ns / k.invocations, 1e-9);
        EXPECT_FALSE(k.in_dataflow);
    }
    // Sum of per-kernel time reproduces the session's kernel counter
    // exactly when nothing overlaps.
    EXPECT_NEAR(sum_ns, s.kernel_ns(), 1e-9);
    EXPECT_NEAR(sum_ns, q.kernel_ns(), 1e-9);
    EXPECT_NEAR(p.kernel_span_ns, p.kernel_ns, 1e-9);
    EXPECT_NEAR(sum_pct, 1.0, 1e-9);
    // Sorted by total time: "alpha" ran twice with identical stats.
    EXPECT_EQ(p.kernels[0].name, "alpha");
    EXPECT_DOUBLE_EQ(p.kernels[0].invocations, 2.0);
    EXPECT_NEAR(p.kernels[0].total_ns, 2.0 * p.kernels[1].total_ns, 1e-9);
}

TEST(Profile, DataflowOverlapIsReportedNotDoubleCounted) {
    double queue_kernel_ns = 0.0;
    const session s = make_session(&queue_kernel_ns);
    const profile_report p = build_profile(s);
    EXPECT_NEAR(p.kernel_ns, queue_kernel_ns, 1e-9);
    // Lane spans overlap, so their sum exceeds the wall-clock counter.
    EXPECT_GT(p.kernel_span_ns, p.kernel_ns);
    for (const auto& k : p.kernels) {
        if (k.name == "producer" || k.name == "consumer") {
            EXPECT_TRUE(k.in_dataflow);
        }
        if (k.name == "seq_kernel") {
            EXPECT_FALSE(k.in_dataflow);
        }
    }
}

TEST(Profile, RooflineClassification) {
    session s("walls");
    s.bind_device(perf::device_by_name("rtx_2080"));
    const profile_report walls = build_profile(s);
    ASSERT_GT(walls.peak_gflops, 0.0);
    ASSERT_GT(walls.peak_gbs, 0.0);

    auto synth = [&](const char* name, double flops, double bytes) {
        span sp;
        sp.kind = span_kind::kernel;
        sp.name = name;
        sp.start_ns = s.last_end_ns();
        sp.end_ns = sp.start_ns + 100.0;
        sp.counters.flops = flops;
        sp.counters.bytes = bytes;
        s.record(sp);
    };
    // Over 100 ns: flops -> GFLOP/s = flops/100, bytes -> GB/s = bytes/100.
    synth("hot_alu", walls.peak_gflops * 90.0, walls.peak_gbs * 1.0);
    synth("streamer", walls.peak_gflops * 1.0, walls.peak_gbs * 90.0);
    synth("tiny", walls.peak_gflops * 0.1, walls.peak_gbs * 0.1);

    const profile_report p = build_profile(s);
    ASSERT_EQ(p.kernels.size(), 3u);
    for (const auto& k : p.kernels) {
        if (k.name == "hot_alu") {
            EXPECT_EQ(k.bound, bound_by::compute);
            EXPECT_NEAR(k.compute_utilization, 0.9, 1e-9);
        } else if (k.name == "streamer") {
            EXPECT_EQ(k.bound, bound_by::bandwidth);
            EXPECT_NEAR(k.memory_utilization, 0.9, 1e-9);
        } else {
            EXPECT_EQ(k.bound, bound_by::latency);
        }
    }
    // Without a device there are no walls to classify against.
    session bare("no-device");
    perf::kernel_stats k = named_stats("k");
    bare.record_kernel(k, 0.0, 10.0);
    const profile_report q = build_profile(bare);
    ASSERT_EQ(q.kernels.size(), 1u);
    EXPECT_EQ(q.kernels[0].bound, bound_by::unknown);
}

TEST(Profile, JsonExportRoundTrips) {
    const session s = make_session();
    profile_report p = build_profile(s);
    // Every control byte goes out escaped, so hostile text round-trips.
    const std::string hostile = "q\"b\\s\x01" "c\rn\nt\t";
    p.device = hostile;
    std::ostringstream out;
    write_profile_json(p, out);
    const altis::json::value doc = altis::json::parse(out.str());
    EXPECT_EQ(doc.at("session").as_string(), "roundtrip");
    EXPECT_EQ(doc.at("device").as_string(), hostile);
    double sum_ns = 0.0;
    for (const auto& k : doc.at("kernels").as_array()) {
        sum_ns += k.at("total_ns").as_number();
        EXPECT_TRUE(k.has("bound_by"));
        EXPECT_TRUE(k.has("gbs"));
        EXPECT_TRUE(k.has("gflops"));
    }
    EXPECT_NEAR(sum_ns, doc.at("kernel_span_ns").as_number(),
                doc.at("kernel_span_ns").as_number() * 1e-4);
}

TEST(Profile, TableRendersKernelsAndOverlapNote) {
    const session s = make_session();
    const profile_report p = build_profile(s);
    std::ostringstream out;
    render_profile(p, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("seq_kernel"), std::string::npos);
    EXPECT_NE(text.find("GB/s"), std::string::npos);
    EXPECT_NE(text.find("Bound by"), std::string::npos);
    EXPECT_NE(text.find("(dataflow)"), std::string::npos);
    EXPECT_NE(text.find("dataflow overlap"), std::string::npos);
}

// ---- the shared flag table -------------------------------------------------

// A parser carrying every row a harness binary can register: the standard
// rows plus the whole shared table.
OptionParser every_row_parser() {
    OptionParser p;
    add_standard_options(p);
    add_harness_flags(p);
    return p;
}

// Parses `args` against a fresh every-row parser; throws what parse() throws.
OptionParser parsed(std::vector<const char*> args) {
    OptionParser p = every_row_parser();
    args.insert(args.begin(), "bin");
    std::ostringstream out;
    EXPECT_TRUE(p.parse(static_cast<int>(args.size()), args.data(), out));
    return p;
}

std::string str(double v) {
    std::ostringstream os;
    os << std::setprecision(15) << v;
    return os.str();
}

// Accepted non-default values for a row: one for argv, one for env.
std::pair<std::string, std::string> sample_values(const option_row& r) {
    switch (r.kind) {
        case option_kind::flag: return {"1", "1"};
        case option_kind::integer:
        case option_kind::number: {
            const std::string lo = str(r.min);
            const std::string hi = str(r.max);
            return r.def == lo ? std::pair{hi, hi} : std::pair{lo, hi};
        }
        case option_kind::text: break;
    }
    if (r.choices.empty()) return {"from-argv", "from-env"};
    return {r.choices.substr(0, r.choices.find('|')),
            r.choices.substr(r.choices.rfind('|') + 1)};
}

// Clears every table env var for the test's duration, restoring it after.
class clean_env {
public:
    clean_env() {
        for (const option_row& r : every_row_parser().rows()) {
            if (r.env.empty()) continue;
            const char* v = std::getenv(r.env.c_str());
            saved_.emplace_back(r.env, v != nullptr ? std::optional<std::string>(v)
                                                    : std::nullopt);
            ::unsetenv(r.env.c_str());
        }
    }
    ~clean_env() {
        for (const auto& [name, v] : saved_)
            if (v) ::setenv(name.c_str(), v->c_str(), 1);
    }
    clean_env(const clean_env&) = delete;
    clean_env& operator=(const clean_env&) = delete;

private:
    std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

std::string flag_arg(const option_row& r) { return "--" + r.name; }

TEST(FlagTable, EveryRowResolvesArgvThenEnvThenDefault) {
    const clean_env env;
    for (const option_row& r : every_row_parser().rows()) {
        SCOPED_TRACE(r.name);
        EXPECT_EQ(parsed({}).get_string(r.name), r.def);

        const auto [av, ev] = sample_values(r);
        const std::string arg = flag_arg(r);
        std::vector<const char*> argv{arg.c_str()};
        if (r.kind != option_kind::flag) argv.push_back(av.c_str());
        EXPECT_EQ(parsed(argv).get_string(r.name), av);
        if (r.env.empty()) continue;

        ::setenv(r.env.c_str(), ev.c_str(), 1);
        EXPECT_EQ(parsed({}).get_string(r.name), ev) << "env beats default";
        ::setenv(r.env.c_str(), r.kind == option_kind::flag ? "0" : ev.c_str(),
                 1);
        if (r.kind != option_kind::flag) {
            // argv's value must differ from env's to tell who won.
            const std::string other = av == ev ? r.def : av;
            argv.back() = other.c_str();
            EXPECT_EQ(parsed(argv).get_string(r.name), other)
                << "argv beats env";
        } else {
            EXPECT_EQ(parsed(argv).get_string(r.name), "1") << "argv beats env";
        }
        ::unsetenv(r.env.c_str());
    }
}

TEST(FlagTable, EnvAloneSwitchesItsSubsystemOn) {
    const clean_env env;
    const std::pair<const char*, const char*> cases[] = {
        {"ALTIS_TRACE", "/tmp/env.json"},
        {"ALTIS_FAULT", "alloc@1"},
        {"ALTIS_SANITIZE", "warn"},
        {"ALTIS_METRICS", "1"},
        {"ALTIS_DEADLINE_MS", "500"},
    };
    for (const auto& [name, value] : cases) {
        SCOPED_TRACE(name);
        ::setenv(name, value, 1);
        const harness_options o = read_harness_flags(parsed({}));
        ::unsetenv(name);
        const int on = int{o.trace.enabled()} + int{o.fault.enabled()} +
                       int{o.sanitize.enabled()} + int{o.metrics.enabled()} +
                       int{o.resilience.enabled()};
        EXPECT_EQ(on, 1);
    }
    EXPECT_EQ(read_harness_flags(parsed({})).trace.trace_path, "");
    EXPECT_EQ(read_harness_flags(parsed({"--trace", "/tmp/t.json", "--profile"}))
                  .trace.trace_path,
              "/tmp/t.json");
}

TEST(FlagTable, MetricsEnvZeroStaysOff) {
    const clean_env env;
    ::setenv("ALTIS_METRICS", "0", 1);
    const harness_options o = read_harness_flags(parsed({}));
    ::unsetenv("ALTIS_METRICS");
    EXPECT_FALSE(o.metrics.enabled());
}

TEST(FlagTable, RangedRowsRejectBadValuesNamingTheirOrigin) {
    const clean_env env;
    for (const option_row& r : every_row_parser().rows()) {
        std::vector<std::string> bad;
        if (r.kind == option_kind::integer || r.kind == option_kind::number)
            bad = {str(r.min - 1), str(r.max + 1), "abc"};
        else if (!r.choices.empty())
            bad = {"abc"};
        for (const std::string& v : bad) {
            SCOPED_TRACE(r.name + "=" + v);
            const std::string arg = flag_arg(r);
            try {
                (void)parsed({arg.c_str(), v.c_str()});
                ADD_FAILURE() << "accepted";
            } catch (const OptionError& e) {
                EXPECT_NE(std::string(e.what()).find(arg), std::string::npos)
                    << e.what();
            }
            if (r.env.empty()) continue;
            ::setenv(r.env.c_str(), v.c_str(), 1);
            try {
                (void)parsed({});
                ADD_FAILURE() << "accepted from env";
            } catch (const OptionError& e) {
                EXPECT_NE(std::string(e.what()).find("$" + r.env),
                          std::string::npos)
                    << e.what();
            }
            ::unsetenv(r.env.c_str());
        }
    }
}

TEST(FlagTable, HelpListsEachRowExactlyOnce) {
    OptionParser p = every_row_parser();
    const char* argv[] = {"bin", "--help"};
    std::ostringstream out;
    ASSERT_FALSE(p.parse(2, argv, out));
    for (const option_row& r : p.rows()) {
        std::istringstream lines(out.str());
        int seen = 0;
        for (std::string line; std::getline(lines, line);) {
            std::istringstream words(line);
            std::string first;
            words >> first;
            if (first == flag_arg(r)) ++seen;
        }
        EXPECT_EQ(seen, 1) << r.name;
    }
}

TEST(TraceOptions, FinishSessionWritesParseableArtifacts) {
    session s = make_session();
    s.begin_region("left open", 0.0);  // finish_session must close it

    options o;
    o.trace_path = "finish_session_test.json";
    o.profile = true;
    std::ostringstream out, err;
    ASSERT_TRUE(finish_session(s, o, s.last_end_ns(), out, err));
    EXPECT_EQ(s.open_regions(), 0);
    EXPECT_EQ(err.str(), "");
    EXPECT_NE(out.str().find("Per-kernel profile"), std::string::npos);

    auto slurp = [](const std::string& path) {
        std::ifstream f(path);
        EXPECT_TRUE(f.good()) << path;
        std::ostringstream ss;
        ss << f.rdbuf();
        return ss.str();
    };
    EXPECT_NO_THROW((void)altis::json::parse(slurp(o.trace_path)));
    EXPECT_NO_THROW(
        (void)altis::json::parse(slurp(o.trace_path + ".profile.json")));
    std::remove(o.trace_path.c_str());
    std::remove((o.trace_path + ".profile.json").c_str());
}

TEST(TraceOptions, FinishSessionReportsUnwritablePath) {
    session s("t");
    options o;
    o.trace_path = "/nonexistent-dir/trace.json";
    std::ostringstream out, err;
    EXPECT_FALSE(finish_session(s, o, 0.0, out, err));
    EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace altis::trace
