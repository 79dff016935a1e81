// Retry/backoff behaviour of the supervisor's retry loop, outcome recording,
// and the reproducibility contract: the same plan (same seed) over the same
// sweep yields a byte-for-byte identical report.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/common/suite.hpp"
#include "core/result_database.hpp"
#include "fault/inject.hpp"
#include "resilience/supervisor.hpp"
#include "core/json.hpp"

namespace altis::fault {
namespace {

using resilience::journal_entry;
using resilience::outcome;
using resilience::supervisor;

/// One configuration through a fresh supervisor with `opts`.
journal_entry run_one(const supervisor::attempt_fn& attempt,
                      const resilience::options& opts = {}) {
    supervisor sup(opts, "retry-test");
    return sup.run("config", "key", attempt).entry;
}

TEST(FaultRetry, CleanRunIsOkFirstAttempt) {
    const journal_entry e = run_one([](journal_entry&) {});
    EXPECT_TRUE(e.oc.succeeded());
    EXPECT_EQ(e.oc.attempts, 1);
    EXPECT_DOUBLE_EQ(e.oc.backoff_ms, 0.0);
    EXPECT_STREQ(e.oc.label(), "ok");
}

TEST(FaultRetry, RetryableFaultRetriesWithExponentialBackoff) {
    // alloc@1x2: the first two allocation probes fault, the third succeeds.
    plan p = plan::parse("alloc@1x2");
    scope s(p);
    std::vector<std::string> marks;
    std::vector<std::string> seen_errors;
    supervisor sup({}, "retry-test",
                   [&](supervisor::mark m, std::string name) {
                       EXPECT_EQ(m, supervisor::mark::retried);
                       marks.push_back(std::move(name));
                   });
    const journal_entry e =
        sup.run("config", "key", [&](journal_entry& out) {
               // A retry still shows the failed attempt's error.
               seen_errors.push_back(out.oc.error);
               maybe_inject(op_kind::alloc, "usm_device");
           }).entry;
    EXPECT_TRUE(e.oc.succeeded());
    EXPECT_EQ(e.oc.attempts, 3);
    EXPECT_STREQ(e.oc.label(), "retried");
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_NE(marks[0].find("retry 1: config (backoff 25.000000 ms)"),
              std::string::npos);
    EXPECT_NE(marks[1].find("retry 2: config (backoff 50.000000 ms)"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(e.oc.backoff_ms, 75.0);
    ASSERT_EQ(seen_errors.size(), 3u);
    EXPECT_TRUE(seen_errors[0].empty());
    EXPECT_NE(seen_errors[1].find("injected alloc fault"), std::string::npos);
}

TEST(FaultRetry, NonRetryableFaultFailsImmediately) {
    plan p = plan::parse("launch@1");
    scope s(p);
    const journal_entry e = run_one(
        [](journal_entry&) { maybe_inject(op_kind::launch, "kernel"); });
    EXPECT_FALSE(e.oc.succeeded());
    EXPECT_EQ(e.oc.attempts, 1);
    EXPECT_STREQ(e.oc.label(), "failed");
    EXPECT_NE(e.oc.error.find("injected launch fault"), std::string::npos);
}

TEST(FaultRetry, ExhaustedRetriesFail) {
    plan p = plan::parse("alloc@1x99");
    scope s(p);
    resilience::options opts;
    opts.retry.max_attempts = 3;
    const journal_entry e = run_one(
        [](journal_entry& out) {
            out.value = 1.0;
            maybe_inject(op_kind::alloc, "usm_host");
        },
        opts);
    EXPECT_FALSE(e.oc.succeeded());
    EXPECT_EQ(e.oc.attempts, 3);
    EXPECT_STREQ(e.oc.label(), "failed");
    EXPECT_FALSE(e.value.has_value()) << "a failed config reports no result";
}

TEST(FaultRetry, FailFastRethrows) {
    plan p = plan::parse("launch@1");
    scope s(p);
    resilience::options opts;
    opts.fail_fast = true;
    EXPECT_THROW(
        (void)run_one(
            [](journal_entry&) { maybe_inject(op_kind::launch, "k"); }, opts),
        launch_fault);
}

TEST(FaultRetry, OrdinaryExceptionIsNotRetried) {
    int calls = 0;
    const journal_entry e = run_one([&](journal_entry&) {
        ++calls;
        throw std::runtime_error("verification mismatch");
    });
    EXPECT_FALSE(e.oc.succeeded());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(e.oc.error, "verification mismatch");
}

TEST(FaultRetry, SameSeedSameOutcomes) {
    // Probabilistic plan driven twice from identical fresh state: the
    // sequence of outcomes (attempts and statuses) must match exactly.
    auto drive = [] {
        plan p = plan::parse("alloc%0.4;seed=123");
        scope s(p);
        supervisor sup({}, "retry-test");
        std::string log;
        for (int i = 0; i < 20; ++i) {
            const journal_entry e =
                sup.run(std::to_string(i), "key", [](journal_entry&) {
                       maybe_inject(op_kind::alloc, "usm_shared");
                   }).entry;
            (log += e.oc.label()) += ':';
            (log += std::to_string(e.oc.attempts)) += ';';
        }
        return log;
    };
    EXPECT_EQ(drive(), drive());
}

TEST(FaultRetry, FailedConfigStillYieldsWellFormedJson) {
    // Under a fault plan every outcome is logged, the clean one included.
    plan p = plan::parse("seed=1");
    scope s(p);
    const supervisor sup({}, "retry-test");
    ResultDatabase db;
    db.add_result("total_time", "app=kmeans", "ms", 12.5);
    journal_entry failed;
    failed.config = "KMeans/fpga_opt/stratix_10/size2";
    failed.oc.st = outcome::status::failed;
    failed.oc.attempts = 3;
    failed.oc.error = "injected alloc fault on 'usm_device' (rule alloc@1x99)";
    sup.record(db, failed);
    journal_entry ok;
    ok.config = "NW/fpga_opt/stratix_10/size2";
    sup.record(db, ok);

    std::ostringstream out;
    db.dump_json(out);
    const altis::json::value v = altis::json::parse(out.str());
    ASSERT_TRUE(v.has("results"));
    ASSERT_TRUE(v.has("outcomes"));
    const auto& outcomes = v.at("outcomes").as_array();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].at("config").as_string(),
              "KMeans/fpga_opt/stratix_10/size2");
    EXPECT_EQ(outcomes[0].at("status").as_string(), "failed");
    EXPECT_DOUBLE_EQ(outcomes[0].at("attempts").as_number(), 3.0);
    EXPECT_NE(outcomes[0].at("error").as_string().find("injected alloc"),
              std::string::npos);
    EXPECT_EQ(outcomes[1].at("status").as_string(), "ok");
    EXPECT_FALSE(db.all_outcomes_ok());
}

TEST(FaultRetry, JsonKeepsLegacyArrayShapeWithoutOutcomes) {
    ResultDatabase db;
    db.add_result("total_time", "app=nw", "ms", 1.0);
    std::ostringstream out;
    db.dump_json(out);
    EXPECT_EQ(out.str().front(), '[');  // historical bare-array shape
    const altis::json::value v = altis::json::parse(out.str());
    EXPECT_EQ(v.as_array().size(), 1u);
}

TEST(FaultRetry, MergeAppendsResultsAndOutcomes) {
    const supervisor sup({}, "retry-test");
    ResultDatabase main_db, attempt;
    attempt.add_result("total_time", "app=srad", "ms", 3.0);
    journal_entry e;
    e.config = "SRAD/sycl_opt/rtx_2080/size1";
    e.oc.attempts = 2;
    sup.record(attempt, e);  // retried: logged even on a clean run
    main_db.merge(attempt);
    ASSERT_EQ(main_db.results().size(), 1u);
    EXPECT_EQ(main_db.results()[0].values.size(), 1u);
    ASSERT_EQ(main_db.outcomes().size(), 1u);
    EXPECT_EQ(main_db.outcomes()[0].status, "retried");
}

// The acceptance scenario: a plan injecting one allocation failure and one
// pipe stall into a Fig. 4-style sweep completes, marks exactly the affected
// configurations failed/retried, and is byte-for-byte reproducible.
std::string fig4_style_sweep(const std::string& spec) {
    plan p = plan::parse(spec);
    scope s(p);
    supervisor sup({}, "fig4-style");
    ResultDatabase db;
    for (const auto& e : bench::suite()) {
        if (!e.in_fig45) continue;
        for (const Variant v : {Variant::fpga_base, Variant::fpga_opt}) {
            const journal_entry co =
                bench::run_config(e, v, "stratix_10", 1, sup);
            sup.record(db, co);
            if (co.value) db.add_result("total_ms", co.config, "ms", *co.value);
        }
    }
    std::ostringstream out;
    db.dump_json(out);
    return out.str();
}

TEST(FaultRetry, InjectedSweepIsByteForByteReproducible) {
    const std::string spec = "alloc@3;pipe:*@1;transfer%0.1;seed=9";
    const std::string a = fig4_style_sweep(spec);
    const std::string b = fig4_style_sweep(spec);
    EXPECT_EQ(a, b);

    // The sweep completed and recorded every configuration.
    const altis::json::value v = altis::json::parse(a);
    const auto& outcomes = v.at("outcomes").as_array();
    std::size_t expected = 0;
    for (const auto& e : bench::suite())
        if (e.in_fig45) expected += 2;
    EXPECT_EQ(outcomes.size(), expected);

    // At least one config degraded (the pipe stall is non-retryable) and at
    // least one config survived.
    std::size_t failed = 0, okish = 0;
    for (const auto& oc : outcomes) {
        const std::string& st = oc.at("status").as_string();
        if (st == "failed") ++failed;
        if (st == "ok" || st == "retried") ++okish;
    }
    EXPECT_GE(failed, 1u);
    EXPECT_GE(okish, 1u);
}

TEST(FaultRetry, AllocFaultIsRetriedInSweep) {
    // alloc@1: exactly the first allocation probe faults; the first config's
    // retry then succeeds, every other config is clean.
    plan p = plan::parse("alloc@1");
    scope s(p);
    supervisor sup({}, "sweep");
    const auto& e = bench::suite().front();
    const journal_entry co =
        bench::run_config(e, Variant::fpga_base, "stratix_10", 1, sup);
    EXPECT_TRUE(co.oc.succeeded());
    EXPECT_EQ(co.oc.attempts, 2);
    EXPECT_STREQ(co.oc.label(), "retried");
    ASSERT_TRUE(co.value.has_value());
    EXPECT_GT(*co.value, 0.0);

    const journal_entry clean =
        bench::run_config(e, Variant::fpga_base, "stratix_10", 2, sup);
    EXPECT_TRUE(clean.oc.succeeded());
    EXPECT_EQ(clean.oc.attempts, 1);
}

TEST(FaultRetry, NonexistentConfigIsSkippedNotFailed) {
    // sycl_opt cannot target an FPGA: the config is reported skipped.
    supervisor sup({}, "sweep");
    const auto& e = bench::suite().front();
    const journal_entry co =
        bench::run_config(e, Variant::sycl_opt, "stratix_10", 1, sup);
    EXPECT_EQ(co.oc.st, outcome::status::skipped);
    EXPECT_STREQ(co.oc.label(), "skipped");
    EXPECT_FALSE(co.value.has_value());
}

}  // namespace
}  // namespace altis::fault
