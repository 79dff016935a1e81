#include "resilience/cancel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "apps/cfd/cfd.hpp"
#include "fault/inject.hpp"
#include "fault/retry.hpp"
#include "fault/spec.hpp"
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
    deadline_scope scope(20.0);
    int calls = 0;
    fault::retry_policy policy;
    policy.max_attempts = 5;
    const fault::outcome oc = fault::run_guarded(
        [&] {
            ++calls;
            std::this_thread::sleep_for(milliseconds(40));
            checkpoint();
        },
        policy);
    EXPECT_EQ(oc.st, fault::outcome::status::deadline);
    EXPECT_EQ(std::string(oc.label()), "deadline");
    EXPECT_EQ(calls, 1) << "deadline outcomes must not be retried";
}

TEST_F(Cancel, RunGuardedClassifiesManualCancel) {
    current().cancel(cancel_reason::manual);
    const fault::outcome oc =
        fault::run_guarded([&] { checkpoint(); }, fault::retry_policy{});
    EXPECT_EQ(oc.st, fault::outcome::status::cancelled);
    EXPECT_EQ(std::string(oc.label()), "cancelled");
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
    EXPECT_EQ(fault::status_from_label("ok"), fault::outcome::status::ok);
    EXPECT_EQ(fault::status_from_label("retried"), fault::outcome::status::ok);
    EXPECT_EQ(fault::status_from_label("skipped"),
              fault::outcome::status::skipped);
    EXPECT_EQ(fault::status_from_label("deadline"),
              fault::outcome::status::deadline);
    EXPECT_EQ(fault::status_from_label("cancelled"),
              fault::outcome::status::cancelled);
    EXPECT_EQ(fault::status_from_label("quarantined"),
              fault::outcome::status::quarantined);
    EXPECT_EQ(fault::status_from_label("nonsense"),
              fault::outcome::status::failed);
}

}  // namespace
}  // namespace altis::resilience
