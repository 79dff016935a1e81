#include "resilience/cancel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "apps/cfd/cfd.hpp"
#include "fault/inject.hpp"
#include "fault/spec.hpp"
#include "resilience/supervisor.hpp"
#include "sycl/pipe.hpp"
#include "sycl/thread_pool.hpp"

namespace altis::resilience {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Every test shares the process-wide token; start and finish clean so a
/// latched cancellation can never leak across tests.
class Cancel : public ::testing::Test {
protected:
    void SetUp() override { current().reset(); }
    void TearDown() override { current().reset(); }
};

TEST_F(Cancel, FastPathIsQuietWhenDisabled) {
    EXPECT_FALSE(cancellation_requested());
    EXPECT_NO_THROW(checkpoint());
}

TEST_F(Cancel, ManualCancelRaisesWithReason) {
    current().cancel(cancel_reason::manual);
    EXPECT_TRUE(cancellation_requested());
    try {
        checkpoint();
        FAIL() << "checkpoint did not raise";
    } catch (const cancelled_error& e) {
        EXPECT_EQ(e.reason(), cancel_reason::manual);
        EXPECT_STREQ(e.what(), "cancelled");
    }
}

TEST_F(Cancel, DeadlineScopeLatchesExpiryAndClearsOnExit) {
    {
        deadline_scope scope(20.0);
        std::this_thread::sleep_for(milliseconds(40));
        EXPECT_TRUE(cancellation_requested());
        try {
            checkpoint();
            FAIL() << "expired deadline did not raise";
        } catch (const cancelled_error& e) {
            EXPECT_EQ(e.reason(), cancel_reason::deadline);
            EXPECT_NE(std::string(e.what()).find("deadline of"),
                      std::string::npos);
        }
    }
    // Disarm cleared the deadline latch: the next configuration starts on
    // the quiet fast path.
    EXPECT_FALSE(cancellation_requested());
    EXPECT_NO_THROW(checkpoint());
}

TEST_F(Cancel, DisarmPreservesManualAndInterruptCancellation) {
    {
        deadline_scope scope(1000.0);
        current().cancel(cancel_reason::manual);
    }
    // A manual cancel means the sweep is being torn down; leaving the
    // deadline scope must not resurrect it.
    EXPECT_TRUE(cancellation_requested());
    EXPECT_THROW(checkpoint(), cancelled_error);
}

TEST_F(Cancel, ZeroDeadlineScopeIsInert) {
    deadline_scope scope(0.0);
    std::this_thread::sleep_for(milliseconds(5));
    EXPECT_FALSE(cancellation_requested());
}

TEST_F(Cancel, BlockedPipeReadWakesOnDeadlineWithinBudget) {
    // The hang scenario from the paper's FPGA campaigns: a consumer blocked
    // on a pipe whose producer never runs, with a watchdog far longer than
    // anyone wants to wait. The armed deadline must cut it loose in
    // milliseconds, not ride out the 60 s watchdog.
    syclite::pipe<int> p(4, "hung_consumer", milliseconds(60000));
    const auto t0 = steady_clock::now();
    deadline_scope scope(100.0);
    try {
        (void)p.read();
        FAIL() << "read returned from an empty pipe";
    } catch (const cancelled_error& e) {
        EXPECT_EQ(e.reason(), cancel_reason::deadline);
    }
    const auto elapsed = std::chrono::duration_cast<milliseconds>(
        steady_clock::now() - t0);
    EXPECT_LT(elapsed.count(), 5000) << "cancellation latency out of budget";
}

TEST_F(Cancel, InjectedPipeStallIsCancellable) {
    fault::plan plan = fault::plan::parse("pipe:stall*@1");
    fault::scope fs(plan);
    syclite::pipe<int> p(4, "stall_target", milliseconds(60000));
    const auto t0 = steady_clock::now();
    deadline_scope scope(100.0);
    // The injected stall would normally block for the full watchdog and
    // collapse into pipe_deadlock; under a deadline it must raise
    // cancelled_error long before that.
    EXPECT_THROW(p.write(1), cancelled_error);
    const auto elapsed = std::chrono::duration_cast<milliseconds>(
        steady_clock::now() - t0);
    EXPECT_LT(elapsed.count(), 5000);
}

TEST_F(Cancel, RunGuardedClassifiesDeadlineAsNonRetryable) {
    options o;
    o.deadline_ms = 20.0;
    o.retry.max_attempts = 5;
    supervisor sup(o, "cancel-test");
    int calls = 0;
    const journal_entry e = sup.run("c", "k", [&](journal_entry&) {
                                   ++calls;
                                   std::this_thread::sleep_for(
                                       milliseconds(40));
                                   checkpoint();
                               }).entry;
    EXPECT_EQ(e.oc.st, outcome::status::deadline);
    EXPECT_EQ(std::string(e.oc.label()), "deadline");
    EXPECT_EQ(calls, 1) << "deadline outcomes must not be retried";
}

TEST_F(Cancel, RunGuardedClassifiesManualCancel) {
    current().cancel(cancel_reason::manual);
    supervisor sup({}, "cancel-test");
    const journal_entry e =
        sup.run("c", "k", [&](journal_entry&) { checkpoint(); }).entry;
    EXPECT_EQ(e.oc.st, outcome::status::cancelled);
    EXPECT_EQ(std::string(e.oc.label()), "cancelled");
}

TEST_F(Cancel, ThreadPoolParallelForRaisesOnSubmitterAfterDrain) {
    syclite::thread_pool pool(2);
    std::atomic<int> executed{0};
    current().cancel(cancel_reason::manual);
    EXPECT_THROW(
        pool.parallel_for(100000, [&](std::size_t) { ++executed; }),
        cancelled_error);
    // Workers bail between chunks instead of throwing; the cancelled job
    // must not have run the whole range.
    EXPECT_LT(executed.load(), 100000);
}

TEST_F(Cancel, SerialParallelForObservesMaskedCheckpoints) {
    syclite::thread_pool pool(0);  // no workers: serial fallback path
    std::atomic<int> executed{0};
    EXPECT_THROW(pool.parallel_for(100000,
                                   [&](std::size_t i) {
                                       ++executed;
                                       if (i == 2000)
                                           current().cancel(
                                               cancel_reason::manual);
                                   }),
                 cancelled_error);
    EXPECT_LT(executed.load(), 100000);
    EXPECT_GE(executed.load(), 2000);
}

TEST_F(Cancel, DeadlineCancelsGoldenReferenceWithinBudget) {
    // A size-2 cfd host reference runs for seconds; its per-element loops go
    // through the pool, whose chunk claims observe the deadline.
    const apps::cfd::params p = apps::cfd::params::preset(2);
    const apps::cfd::mesh m = apps::cfd::make_mesh(p);
    std::vector<float> vars = apps::cfd::initial_variables<float>(p);
    const auto start = steady_clock::now();
    {
        deadline_scope scope(50.0);
        try {
            apps::cfd::golden(p, m, vars);
            FAIL() << "golden() ran to completion past its deadline";
        } catch (const cancelled_error& e) {
            EXPECT_EQ(e.reason(), cancel_reason::deadline);
        }
    }
    EXPECT_LT(steady_clock::now() - start, milliseconds(1000));
}

TEST_F(Cancel, StatusLabelRoundTrip) {
    // Labels and the journal's status field are one vocabulary: every
    // status survives a journal line, "retried" being ok with attempts > 1.
    using st = outcome::status;
    for (const st s : {st::ok, st::skipped, st::deadline, st::cancelled,
                       st::quarantined, st::failed}) {
        for (const int attempts : {1, 2}) {
            journal_entry e;
            e.config = "c";
            e.oc.st = s;
            e.oc.attempts = attempts;
            const auto back = parse_line(to_line(e));
            ASSERT_TRUE(back.has_value());
            EXPECT_EQ(back->oc.st, s);
            EXPECT_STREQ(back->oc.label(), e.oc.label());
        }
    }
    journal_entry ok;
    ok.oc.attempts = 2;
    EXPECT_STREQ(ok.oc.label(), "retried");
    const auto nonsense =
        parse_line(R"({"config":"c","status":"nonsense","attempts":1})");
    ASSERT_TRUE(nonsense.has_value());
    EXPECT_EQ(nonsense->oc.st, st::failed);
}

}  // namespace
}  // namespace altis::resilience
