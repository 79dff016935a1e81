// Suite runner CLI: the Altis-style entry point. Runs one application (or
// every registered application) functionally on a simulated device, verifies
// the results against the host reference, and reports timing statistics.
//
//   ./examples/altis_run --help
//   ./examples/altis_run kmeans --device stratix_10 --variant fpga_opt
//   ./examples/altis_run all --size 1 --device rtx_2080 --passes 3 --csv
//   ./examples/altis_run kmeans --trace out.json --profile
//   ./examples/altis_run all --inject 'alloc@2;seed=7'   # fault drill
//   ./examples/altis_run all --sanitize error             # hazard/perf lint
//   ./examples/altis_run all --journal run.jsonl          # crash-safe sweep
//   ./examples/altis_run all --resume run.jsonl           # continue after kill
#include <algorithm>
#include <iostream>
#include <sstream>

#include "apps/common/app.hpp"
#include "core/option_parser.hpp"
#include "core/registry.hpp"
#include "core/result_database.hpp"
#include "resilience/cancel.hpp"
#include "trace/harness.hpp"

namespace {

/// Snapshot of a per-attempt database for the checkpoint journal; values
/// round-trip exactly (to_chars), so a replayed merge is byte-identical.
std::vector<altis::resilience::journal_series> capture_series(
    const altis::ResultDatabase& db) {
    std::vector<altis::resilience::journal_series> out;
    for (const auto& r : db.results())
        out.push_back({r.test, r.atts, r.unit, r.values});
    return out;
}

void restore_series(const std::vector<altis::resilience::journal_series>& in,
                    altis::ResultDatabase& db) {
    for (const auto& s : in)
        for (double v : s.values) db.add_result(s.test, s.atts, s.unit, v);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace altis;

    trace::cli_harness h("altis_run");
    OptionParser& opts = h.parser();
    add_standard_options(opts);
    opts.add_option("variant", "sycl_opt",
                    "cuda | sycl_base | sycl_opt | fpga_base | fpga_opt");
    opts.add_flag("csv", "dump raw trial values as CSV");
    opts.add_flag("json", "dump results as JSON");
    opts.add_flag("list", "list registered applications and exit");
    if (int rc = h.parse(argc, argv); rc >= 0) return rc;
    resilience::supervisor& sup = h.supervisor();
    trace::session& tsession = h.trace_session();

    // SIGINT/SIGTERM turn into cooperative cancellation: the running config
    // unwinds at its next checkpoint, the loop below breaks, and the partial
    // report plus the (already fsync'd) journal survive the exit.
    resilience::install_signal_cancellation();

    apps::register_all_apps();
    auto& registry = Registry::instance();

    if (opts.get_flag("list")) {
        for (const auto& app : registry.apps()) {
            std::cout << app.name << " -- " << app.description << " [";
            for (std::size_t i = 0; i < app.variants.size(); ++i)
                std::cout << (i ? " " : "") << to_string(app.variants[i]);
            std::cout << "]\n";
        }
        return 0;
    }

    RunConfig cfg;
    try {
        cfg = apps::read_run_config(opts);
    } catch (const OptionError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    std::vector<std::string> targets = opts.positional();
    if (targets.empty()) {
        std::cerr << "usage: altis_run <app|all> [options]; see --help or "
                     "--list\n";
        return 2;
    }
    if (targets.size() == 1 && targets[0] == "all") {
        targets.clear();
        for (const auto& app : registry.apps()) targets.push_back(app.name);
    }

    ResultDatabase db;
    int failures = 0;
    bool interrupted = false;
    for (const auto& name : targets) {
        const AppInfo* app = registry.find(name);
        if (app == nullptr) {
            std::cerr << "error: unknown application '" << name
                      << "' (try --list)\n";
            return 2;
        }
        const std::string label =
            apps::config_label(name, cfg.variant, cfg.device, cfg.size);
        const bool supported =
            std::find(app->variants.begin(), app->variants.end(),
                      cfg.variant) != app->variants.end() &&
            apps::variant_allowed(cfg.variant,
                                  perf::device_by_name(cfg.device));
        if (!supported) {
            std::cout << name << ": skipped (variant/device unsupported)\n";
            sup.record(db, sup.skipped(label, "variant/device unsupported"));
            continue;
        }
        // Each attempt runs into its own database so a failed partial pass
        // never leaks half a trial's metrics into the report; only the
        // successful attempt's series reach the entry. Everything the config
        // prints also goes into the entry's log, so a resumed run replays the
        // exact same stdout.
        auto emit = [](resilience::journal_entry& e, const std::string& text) {
            std::cout << text;
            e.log += text;
        };
        auto attempt = [&](resilience::journal_entry& e) {
            if (e.oc.attempts == 1) {
                tsession.begin_region(label, tsession.last_end_ns());
            } else {
                std::ostringstream os;
                os << name << ": attempt " << e.oc.attempts - 1 << " failed ("
                   << e.oc.error << "), retrying after "
                   << sup.opts().retry.backoff_ms(e.oc.attempts - 2)
                   << " ms\n";
                emit(e, os.str());
            }
            ResultDatabase attempt_db;
            app->run(cfg, attempt_db);
            e.results = capture_series(attempt_db);
        };
        auto settle = [&](resilience::journal_entry& e) {
            tsession.end_region(tsession.last_end_ns());
            std::ostringstream os;
            os << name << ": ";
            if (e.oc.succeeded()) {
                os << "ok (" << cfg.passes << " passes, verified";
                if (e.oc.retried())
                    os << ", " << e.oc.attempts << " attempts, "
                       << e.oc.backoff_ms << " ms backoff";
                os << ")";
            } else {
                os << (e.oc.st == resilience::outcome::status::failed
                           ? "FAILED"
                           : e.oc.label())
                   << " -- " << e.oc.error;
            }
            os << "\n";
            emit(e, os.str());
        };
        resilience::supervisor::result res;
        try {
            res = sup.run(label,
                          apps::breaker_key(name, cfg.variant, cfg.device),
                          attempt, settle);
        } catch (const std::exception& e) {
            std::cerr << name << ": FAILED -- " << e.what()
                      << "\naborting (--fail-fast)\n";
            return 1;
        }
        // Replays print their captured stdout verbatim; quarantined entries
        // never ran, so their one line is composed the same way live and on
        // replay.
        const resilience::journal_entry& entry = res.entry;
        if (entry.oc.st == resilience::outcome::status::quarantined)
            std::cout << name << ": quarantined -- " << entry.oc.error << "\n";
        else if (res.replayed)
            std::cout << entry.log;
        if (entry.oc.succeeded())
            restore_series(entry.results, db);
        else
            ++failures;
        sup.record(db, entry);
        if (resilience::interrupted()) {
            interrupted = true;
            break;
        }
    }

    if (interrupted)
        std::cout << "\ninterrupted -- partial results follow"
                  << (!sup.journal_path().empty()
                          ? " (journal flushed: " + sup.journal_path() + ")"
                          : "")
                  << "\n";
    std::cout << '\n';
    if (opts.get_flag("csv"))
        db.dump_csv(std::cout);
    else if (opts.get_flag("json"))
        db.dump_json(std::cout);
    else
        db.dump_summary(std::cout);

    // An unwritable artifact (exit 2) outranks an interrupt, which outranks
    // failed configurations, which outrank sanitize findings.
    const int rc = h.finish();
    if (rc == 2) return 2;
    if (interrupted) return 128 + resilience::interrupt_signal();
    if (failures != 0) return 1;
    return rc;
}
