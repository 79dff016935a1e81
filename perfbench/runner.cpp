// End-to-end suite benchmark runner: runs one pass of a named workload of
// the Altis suite through its public entry points (apps::register_all_apps
// -> Registry::find(app)->run, plus analyze::recorder/finish and
// trace::session/finish_session for the instrumented workload) and writes
// one JSON record per line to --out. One process is one pass, as one
// `altis_run` invocation is one sweep; run.py spawns the passes, checks the
// outputs and turns the records into the benchmark's metrics (README.md).
//
//   perfbench_runner --workload suite --seed 1 --pass 0 --traced 0
//                    --out records.jsonl --work-dir tmp/ [--t0-ns NS]
//   perfbench_runner --setup-probe --out records.jsonl [--t0-ns NS]
//
// A traced pass (--traced 1) runs a metrics::session and keeps
// benchmark-side spans in memory; they go to <work-dir>/spans-<pass>.json
// at exit. With --extras 1 it then makes one extra timed call to every
// app's input functions and golden() and to region() + simulate_region for
// every configuration.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/options.hpp"
#include "analyze/recorder.hpp"
#include "apps/cfd/cfd.hpp"
#include "apps/common/app.hpp"
#include "apps/common/region.hpp"
#include "apps/common/suite.hpp"
#include "apps/dwt2d/dwt2d.hpp"
#include "apps/fdtd2d/fdtd2d.hpp"
#include "apps/kmeans/kmeans.hpp"
#include "apps/lavamd/lavamd.hpp"
#include "apps/mandelbrot/mandelbrot.hpp"
#include "apps/nw/nw.hpp"
#include "apps/particlefilter/particlefilter.hpp"
#include "apps/raytracing/raytracing.hpp"
#include "apps/srad/srad.hpp"
#include "apps/where/where.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "mem/pool.hpp"
#include "metrics/session.hpp"
#include "perf/device.hpp"
#include "sycl/thread_pool.hpp"
#include "trace/options.hpp"
#include "trace/session.hpp"

namespace {

using namespace altis;
namespace fs = std::filesystem;

double now_ns() {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

// ---- JSON output ----------------------------------------------------------

std::string num(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string str(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", c);
            out += esc;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

// ---- benchmark-side spans (traced passes only) ----------------------------

struct span {
    std::string id;  ///< configuration label shared by all its spans
    std::string name;
    double start_ns = 0.0;
    double end_ns = 0.0;
    int parent = -1;
};

std::vector<span> g_spans;
bool g_tracing = false;

/// Times one call into a layer; when tracing, also keeps it as a span.
class timed {
public:
    timed(const std::string& id, const char* name, int parent = -1)
        : start_(now_ns()) {
        if (g_tracing) {
            index_ = static_cast<int>(g_spans.size());
            g_spans.push_back({id, name, start_, 0.0, parent});
        }
    }
    ~timed() { stop(); }
    timed(const timed&) = delete;
    timed& operator=(const timed&) = delete;

    /// Ends the span (idempotent); returns its length in ms.
    double stop() {
        if (end_ == 0.0) {
            end_ = now_ns();
            if (index_ >= 0)
                g_spans[static_cast<std::size_t>(index_)].end_ns = end_;
        }
        return (end_ - start_) / 1e6;
    }
    [[nodiscard]] int index() const { return index_; }

private:
    double start_;
    double end_ = 0.0;
    int index_ = -1;
};

void write_spans(const fs::path& path) {
    std::ofstream os(path);
    os << "[";
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const span& s = g_spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << str(s.id)
           << ",\"name\":" << str(s.name) << ",\"start_ns\":" << num(s.start_ns)
           << ",\"end_ns\":" << num(s.end_ns) << ",\"parent\":" << s.parent
           << "}";
    }
    os << "\n]\n";
}

// ---- workloads --------------------------------------------------------------

struct config {
    std::string app;
    Variant variant = Variant::sycl_opt;
    std::string device;
    int size = 1;

    [[nodiscard]] std::string label() const {
        return app + "/" + to_string(variant) + "/" + device + "/size" +
               std::to_string(size);
    }
};

struct workload {
    std::vector<config> configs;
    bool ooo = false;           ///< ALTIS_OOO=1 during the passes
    bool instrumented = false;  ///< --sanitize warn + --trace per config
};

const std::pair<Variant, const char*> kSyclXeon{Variant::sycl_opt, "xeon_6128"};
const std::pair<Variant, const char*> kFpgaS10{Variant::fpga_opt, "stratix_10"};

std::optional<workload> make_workload(const std::string& name) {
    workload w;
    auto add = [&](const std::string& app, std::pair<Variant, const char*> vd,
                   int size) {
        w.configs.push_back({app, vd.first, vd.second, size});
    };
    if (name == "suite") {
        for (const auto& vd : {kSyclXeon, kFpgaS10})
            for (const AppInfo& app : Registry::instance().apps())
                add(app.name, vd, 1);
    } else if (name == "ooo") {
        w.ooo = true;
        for (const auto& vd : {kSyclXeon, kFpgaS10}) {
            add("fdtd2d", vd, 1);
            add("fdtd2d", vd, 2);
            add("cfd", vd, 1);
        }
    } else if (name == "instrumented") {
        // fdtd2d is left out while its sanitized run is bimodal (shadow-store
        // lock contention: 1.2 s or 4.5 s, 0.25 M or 0.9 M context switches
        // per run), and cfd while one sanitized run takes about two minutes.
        w.instrumented = true;
        for (const char* app : {"nw", "kmeans", "where"})
            add(app, kSyclXeon, 1);
        add("kmeans", kFpgaS10, 1);
    } else {
        return std::nullopt;
    }
    return w;
}

bool supported(const AppInfo& app, const config& c) {
    return std::find(app.variants.begin(), app.variants.end(), c.variant) !=
               app.variants.end() &&
           apps::variant_allowed(c.variant, perf::device_by_name(c.device));
}

/// Sets ALTIS_OOO=1 for its lifetime and restores the previous value.
class ooo_env {
public:
    explicit ooo_env(bool on) : on_(on) {
        if (!on_) return;
        if (const char* prev = std::getenv("ALTIS_OOO")) prev_ = prev;
        setenv("ALTIS_OOO", "1", 1);
    }
    ~ooo_env() {
        if (!on_) return;
        if (prev_)
            setenv("ALTIS_OOO", prev_->c_str(), 1);
        else
            unsetenv("ALTIS_OOO");
    }
    ooo_env(const ooo_env&) = delete;
    ooo_env& operator=(const ooo_env&) = delete;

private:
    bool on_;
    std::optional<std::string> prev_;
};

// ---- one configuration ------------------------------------------------------

double first_value(const ResultDatabase& db, const char* test) {
    for (const Result& r : db.results())
        if (r.test == test && !r.values.empty()) return r.values.front();
    throw std::runtime_error(std::string("no ") + test + " reported");
}

/// Runs one configuration the way `altis_run <app>` does and returns its
/// record (a JSON object). Instrumented configurations get their own
/// sanitize recorder and trace session and export both to files.
std::string run_config(const config& c, const workload& w,
                       trace::session& plain_session, const fs::path& work_dir,
                       int pass, std::size_t slot) {
    const std::string label = c.label();
    const AppInfo* app = Registry::instance().find(c.app);
    std::ostringstream rec;
    rec << "{\"label\":" << str(label) << ",\"app\":" << str(c.app)
        << ",\"variant\":" << str(to_string(c.variant))
        << ",\"device\":" << str(c.device) << ",\"size\":" << c.size;
    if (app == nullptr || !supported(*app, c)) {
        rec << ",\"status\":\"skipped\"}";
        return rec.str();
    }

    RunConfig rc;
    rc.size = c.size;
    rc.device = c.device;
    rc.variant = c.variant;
    rc.passes = 1;

    timed root(label, "config");
    std::optional<trace::session> own_session;
    std::optional<trace::session::scope> own_scope;
    std::optional<analyze::recorder> sanitizer;
    trace::session* ts = &plain_session;
    if (w.instrumented) {
        own_session.emplace("perfbench");
        own_scope.emplace(*own_session);
        sanitizer.emplace(analyze::level::warn);
        ts = &*own_session;
    }

    ResultDatabase db;
    std::string error;
    double run_ms = 0.0;
    {
        std::optional<analyze::recorder::scope> rscope;
        if (sanitizer) rscope.emplace(*sanitizer);
        ts->begin_region(label, ts->last_end_ns());
        timed t(label, "apps.run", root.index());
        try {
            app->run(rc, db);
        } catch (const std::exception& e) {
            error = e.what();
        }
        run_ms = t.stop();
        ts->end_region(ts->last_end_ns());
    }
    if (error.empty()) {
        try {
            rec << ",\"kernel_time\":" << num(first_value(db, "kernel_time"))
                << ",\"non_kernel_time\":"
                << num(first_value(db, "non_kernel_time"))
                << ",\"total_time\":" << num(first_value(db, "total_time"));
        } catch (const std::exception& e) {
            error = e.what();
        }
    }
    rec << ",\"run_ms\":" << num(run_ms);

    if (w.instrumented) {
        const std::string stem =
            "p" + std::to_string(pass) + "-" + std::to_string(slot);
        const fs::path findings = work_dir / (stem + "-findings.json");
        const fs::path trace_file = work_dir / (stem + "-trace.json");
        std::ostringstream out;
        std::ostringstream err;
        analyze::options aopt;
        aopt.lv = analyze::level::warn;
        aopt.json_path = findings.string();
        timed tf(label, "analyze.finish", root.index());
        const int arc = analyze::finish(*sanitizer, aopt, out, err);
        const double finish_ms = tf.stop();
        trace::options topt;
        topt.trace_path = trace_file.string();
        const std::size_t spans = ts->spans().size();
        timed te(label, "trace.export", root.index());
        const bool exported = trace::finish_session(
            *ts, topt, ts->last_end_ns(), out, err, nullptr);
        const double export_ms = te.stop();
        if (arc != 0 && error.empty()) error = "analyze::finish: " + err.str();
        if (!exported && error.empty()) error = "trace export: " + err.str();
        std::error_code ec;
        const auto bytes = fs::file_size(trace_file, ec);
        rec << ",\"findings_path\":" << str(findings.string())
            << ",\"trace_path\":" << str(trace_file.string())
            << ",\"finish_ms\":" << num(finish_ms)
            << ",\"export_ms\":" << num(export_ms)
            << ",\"trace_spans\":" << spans
            << ",\"export_bytes\":" << (ec ? 0 : bytes);
    }
    rec << ",\"status\":" << (error.empty() ? "\"ok\"" : "\"failed\"")
        << ",\"error\":" << str(error) << "}";
    return rec.str();
}

// ---- one pass ---------------------------------------------------------------

std::string metrics_json(const metrics::snapshot& snap) {
    // Instruments with labels appear once per label set; sum them per name.
    std::map<std::string, double> values;
    std::map<std::string, std::pair<double, double>> hists;
    for (const metrics::metric_value& m : snap.metrics) {
        if (m.info.kind == metrics::instrument_kind::histogram) {
            auto& h = hists[m.info.name];
            h.first += static_cast<double>(m.hist.count);
            h.second += static_cast<double>(m.hist.sum);
        } else {
            values[m.info.name] += static_cast<double>(m.value);
        }
    }
    std::ostringstream os;
    os << "{\"values\":{";
    const char* sep = "";
    for (const auto& [name, v] : values) {
        os << sep << str(name) << ":" << num(v);
        sep = ",";
    }
    os << "},\"hist\":{";
    sep = "";
    for (const auto& [name, h] : hists) {
        os << sep << str(name) << ":{\"count\":" << num(h.first)
           << ",\"sum\":" << num(h.second) << "}";
        sep = ",";
    }
    os << "}}";
    return os.str();
}

/// One pass over the workload's configurations, in an order permuted by
/// (seed, pass) so no fixed app order can warm caches for the next app.
std::string run_pass(const workload& w, std::uint64_t seed, int pass,
                     bool traced, const fs::path& work_dir) {
    std::vector<std::size_t> order(w.configs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937_64 rng(seed * 1000003ULL + static_cast<std::uint64_t>(pass));
    std::shuffle(order.begin(), order.end(), rng);

    std::optional<metrics::session> msession;
    if (traced) {
        metrics::session::config mcfg;
        mcfg.sample_hz = 0.0;  // totals only; no sampler thread
        msession.emplace("perfbench", mcfg);
    }
    g_tracing = traced;
    ooo_env env(w.ooo);
    // altis_run keeps one trace session current for a whole invocation
    // (spans are recorded even without --trace); a pass is one invocation.
    trace::session plain_session("perfbench");
    trace::session::scope plain_scope(plain_session);

    std::vector<std::string> records;
    const double cpu0 = cpu_seconds();
    const double t0 = now_ns();
    for (const std::size_t i : order)
        records.push_back(
            run_config(w.configs[i], w, plain_session, work_dir, pass, i));
    const double wall_s = (now_ns() - t0) / 1e9;
    const double cpu_s = cpu_seconds() - cpu0;
    g_tracing = false;

    std::ostringstream os;
    os << "{\"kind\":\"pass\",\"index\":" << pass
       << ",\"traced\":" << (traced ? "true" : "false")
       << ",\"wall_s\":" << num(wall_s) << ",\"cpu_s\":" << num(cpu_s)
       << ",\"configs\":[";
    for (std::size_t i = 0; i < records.size(); ++i)
        os << (i ? "," : "") << records[i];
    os << "]";
    if (msession) {
        msession->stop();
        os << ",\"metrics\":" << metrics_json(msession->take_snapshot());
    }
    os << "}";
    return os.str();
}

// ---- per-layer extras (traced run only) -------------------------------------

/// Times one call to an app's public input functions (setup) and golden()
/// host reference at one size. Returns {setup_ms, golden_ms}.
std::pair<double, double> time_host_reference(const std::string& app, int size,
                                              const std::string& id) {
    namespace a = altis::apps;
    double setup_ms = 0.0;
    double golden_ms = 0.0;
    auto measure = [&](auto make, auto golden) {
        timed ts(id, "apps.setup");
        auto input = make();
        setup_ms = ts.stop();
        timed tg(id, "apps.golden");
        golden(input);
        golden_ms = tg.stop();
    };
    if (app == "cfd" || app == "cfd_fp64") {
        const auto p = a::cfd::params::preset(size);
        auto run = [&](auto zero) {
            using Real = decltype(zero);
            measure(
                [&] {
                    return std::make_pair(a::cfd::make_mesh(p),
                                          a::cfd::initial_variables<Real>(p));
                },
                [&](auto& in) {
                    a::cfd::golden<Real>(p, in.first, in.second);
                });
        };
        if (app == "cfd")
            run(0.0f);
        else
            run(0.0);
    } else if (app == "dwt2d") {
        const auto p = a::dwt2d::params::preset(size);
        measure([&] { return a::dwt2d::make_image(p); },
                [&](auto& img) { a::dwt2d::golden(p, img); });
    } else if (app == "fdtd2d") {
        const auto p = a::fdtd2d::params::preset(size);
        measure([&] { return a::fdtd2d::initial_fields(p); },
                [&](auto& f) { a::fdtd2d::golden(p, f); });
    } else if (app == "kmeans") {
        const auto p = a::kmeans::params::preset(size);
        measure([&] { return a::kmeans::make_dataset(p); },
                [&](auto& d) { (void)a::kmeans::golden(p, d); });
    } else if (app == "lavamd") {
        const auto p = a::lavamd::params::preset(size);
        measure([&] { return a::lavamd::make_particles(p); },
                [&](auto& in) { (void)a::lavamd::golden(p, in); });
    } else if (app == "mandelbrot") {
        const auto p = a::mandelbrot::params::preset(size);
        measure([&] { return std::vector<std::uint16_t>(p.pixels()); },
                [&](auto& iters) { a::mandelbrot::golden(p, iters); });
    } else if (app == "nw") {
        const auto p = a::nw::params::preset(size);
        measure([&] { return a::nw::make_workload(p); },
                [&](auto& in) { (void)a::nw::golden(p, in); });
    } else if (app == "pf_naive" || app == "pf_float") {
        namespace pf = a::particlefilter;
        const pf::flavor f =
            app == "pf_naive" ? pf::flavor::naive : pf::flavor::floatopt;
        const auto p = pf::params::preset(size, f);
        measure([&] { return pf::make_video(p); },
                [&](auto& video) { (void)pf::golden(p, f, video); });
    } else if (app == "raytracing") {
        // The SYCL and FPGA variants verify against the philox render.
        const auto p = a::raytracing::params::preset(size);
        measure([&] { return a::raytracing::make_scene(); },
                [&](auto&) {
                    (void)a::raytracing::golden(
                        p, a::raytracing::rng_kind::philox);
                });
    } else if (app == "srad") {
        const auto p = a::srad::params::preset(size);
        measure([&] { return a::srad::make_image(p); },
                [&](auto& img) { a::srad::golden(p, img); });
    } else if (app == "where") {
        const auto p = a::where::params::preset(size);
        measure([&] { return a::where::make_table(p); },
                [&](auto& t) { (void)a::where::golden(p, t); });
    } else {
        throw std::runtime_error("no host reference hook for app " + app);
    }
    return {setup_ms, golden_ms};
}

/// suite() lists the Fig. 2 columns in the order register_all_apps()
/// registers the apps (both follow Table 1), so entry i is app i.
const bench::SuiteEntry& suite_entry(const std::string& app) {
    const auto& apps = Registry::instance().apps();
    const auto& entries = bench::suite();
    for (std::size_t i = 0; i < apps.size() && i < entries.size(); ++i)
        if (apps[i].name == app) return entries[i];
    throw std::runtime_error("no suite entry for app " + app);
}

std::string run_extras(const workload& w) {
    g_tracing = true;
    std::ostringstream os;
    os << "{\"kind\":\"extra\",\"host_reference\":[";
    std::vector<std::pair<std::string, int>> done;
    const char* sep = "";
    for (const config& c : w.configs) {
        const std::pair<std::string, int> key{c.app, c.size};
        if (std::find(done.begin(), done.end(), key) != done.end()) continue;
        done.push_back(key);
        const auto [setup_ms, golden_ms] =
            time_host_reference(c.app, c.size, c.label());
        os << sep << "{\"app\":" << str(c.app) << ",\"size\":" << c.size
           << ",\"setup_ms\":" << num(setup_ms)
           << ",\"golden_ms\":" << num(golden_ms) << "}";
        sep = ",";
    }
    os << "],\"simulate\":[";
    sep = "";
    for (const config& c : w.configs) {
        const AppInfo* app = Registry::instance().find(c.app);
        if (app == nullptr || !supported(*app, c)) continue;
        const perf::device_spec& dev = perf::device_by_name(c.device);
        timed t(c.label(), "perf.simulate");
        const apps::timed_region region = suite_entry(c.app).region(
            c.variant, dev, c.size);
        const apps::timing_estimate est = apps::simulate_region(
            region, dev, apps::runtime_for(c.variant), nullptr);
        const double ms = t.stop();
        os << sep << "{\"label\":" << str(c.label()) << ",\"ms\":" << num(ms)
           << ",\"total_ms\":" << num(est.total_ms()) << "}";
        sep = ",";
    }
    os << "]}";
    g_tracing = false;
    return os.str();
}

// ---- process set-up ---------------------------------------------------------

/// The one-time work an `altis_run` invocation pays before its first app:
/// registry, thread-pool spin-up, first altis::mem slabs, device catalog and
/// session construction.
void process_setup() {
    apps::register_all_apps();
    syclite::thread_pool& pool = syclite::thread_pool::global();
    pool.parallel_for(4 * (pool.worker_count() + 1), [](std::size_t) {});
    for (const std::size_t bytes : {64u, 4096u, 65536u, 1u << 20})
        mem::deallocate(mem::allocate(bytes));
    (void)perf::device_by_name(kSyclXeon.second);
    (void)perf::device_by_name(kFpgaS10.second);
    trace::session warm("perfbench");
    analyze::recorder warm_recorder(analyze::level::warn);
}

int usage(const char* msg) {
    std::cerr << "perfbench_runner: " << msg
              << "\nusage: perfbench_runner --workload <suite|ooo|instrumented>"
                 " --seed N --pass I --traced 0|1 [--extras 0|1] --out FILE"
                 " --work-dir DIR [--t0-ns NS]\n"
                 "       perfbench_runner --setup-probe --out FILE"
                 " [--t0-ns NS]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    const double main_ns = now_ns();
    std::map<std::string, std::string> args;
    bool setup_probe = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--setup-probe") {
            setup_probe = true;
        } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
            args[a.substr(2)] = argv[++i];
        } else {
            return usage(("bad argument " + a).c_str());
        }
    }
    if (!args.count("out")) return usage("--out is required");
    std::ofstream out(args["out"]);
    if (!out) return usage("cannot open --out file");

    // The parent passes its CLOCK_MONOTONIC reading taken just before it
    // spawned this process, so set-up includes exec and static init.
    const double t0 = args.count("t0-ns") ? std::stod(args["t0-ns"]) : main_ns;
    process_setup();
    const double setup_s = (now_ns() - t0) / 1e9;
    out << "{\"kind\":\"setup\",\"setup_s\":" << num(setup_s) << "}\n";
    if (setup_probe) return 0;

    for (const char* key : {"workload", "seed", "pass", "traced", "work-dir"})
        if (!args.count(key))
            return usage((std::string("--") + key + " is required").c_str());
    const std::optional<workload> w = make_workload(args["workload"]);
    if (!w) return usage(("unknown workload " + args["workload"]).c_str());
    const bool traced = args["traced"] == "1";
    const fs::path work_dir = args["work-dir"];
    fs::create_directories(work_dir);

    out << run_pass(*w, std::stoull(args["seed"]), std::stoi(args["pass"]),
                    traced, work_dir)
        << "\n";
    if (traced && args["extras"] == "1") out << run_extras(*w) << "\n";
    if (traced) write_spans(work_dir / ("spans-" + args["pass"] + ".json"));

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    out << "{\"kind\":\"end\",\"peak_rss_mb\":"
        << num(static_cast<double>(ru.ru_maxrss) / 1024.0)
        << ",\"optimized\":" << (optimized ? "true" : "false")
        << ",\"build_type\":" << str(PERFBENCH_BUILD_TYPE)
        << ",\"compiler\":" << str(PERFBENCH_COMPILER) << "}\n";
    return out ? 0 : 1;
}
