#include "resilience/supervisor.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/result_database.hpp"
#include "fault/inject.hpp"
#include "resilience/cancel.hpp"

namespace altis::resilience {
namespace {

std::string tmp_path(const std::string& name) {
    return ::testing::TempDir() + "altis_supervisor_" + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Attempt body: succeeds with `value` and one log line, counting calls.
supervisor::attempt_fn succeed(double value, int* calls = nullptr) {
    return [=](journal_entry& e) {
        if (calls != nullptr) ++*calls;
        e.value = value;
        e.log = e.config + ": ok\n";
    };
}

/// Attempt body: a non-retryable failure, counting calls.
supervisor::attempt_fn fail(int* calls = nullptr) {
    return [=](journal_entry&) {
        if (calls != nullptr) ++*calls;
        throw std::runtime_error("injected fault");
    };
}

/// Attempt body: a retryable injected fault on the first attempt, then
/// `value`.
supervisor::attempt_fn flaky(double value) {
    return [=](journal_entry& e) {
        if (e.oc.attempts == 1)
            throw fault::alloc_fault(
                fault::hit{fault::op_kind::alloc, "usm_device", "alloc@1"}, "");
        e.value = value;
        e.log = e.config + ": retried\n";
    };
}

class Supervisor : public ::testing::Test {
protected:
    void SetUp() override { current().reset(); }
    void TearDown() override { current().reset(); }
};

TEST_F(Supervisor, FreshJournalRecordsEveryCompletedConfig) {
    const std::string path = tmp_path("fresh.jsonl");
    std::remove(path.c_str());
    options o;
    o.journal_path = path;
    supervisor sup(o, "sweep");
    EXPECT_EQ(sup.journal_path(), path);
    EXPECT_EQ(sup.replayable(), 0u);

    auto r1 = sup.run("a", "key", succeed(1.0));
    EXPECT_FALSE(r1.replayed);
    // The settle step runs before the append: what it logs is journaled.
    auto r2 = sup.run("b", "key", fail(), [](journal_entry& e) {
        e.log += std::string("b: ") + e.oc.label() + "\n";
    });
    EXPECT_EQ(r2.entry.oc.st, outcome::status::failed);

    const auto jf = read_journal(path, "sweep");
    ASSERT_TRUE(jf.has_value());
    ASSERT_EQ(jf->entries.size(), 2u);
    EXPECT_EQ(jf->entries[0].config, "a");
    EXPECT_EQ(jf->entries[1].oc.st, outcome::status::failed);
    EXPECT_EQ(jf->entries[1].oc.error, "injected fault");
    EXPECT_EQ(jf->entries[1].log, "b: failed\n");
}

TEST_F(Supervisor, ResumeReplaysVerbatimWithoutRunningTheBody) {
    const std::string path = tmp_path("resume.jsonl");
    std::remove(path.c_str());
    {
        options o;
        o.journal_path = path;
        supervisor sup(o, "sweep");
        sup.run("a", "k", flaky(2.5));
    }
    const std::string after_first = slurp(path);

    options o;
    o.resume_path = path;
    supervisor sup(o, "sweep");
    EXPECT_EQ(sup.replayable(), 1u);
    int body_calls = 0;
    auto r = sup.run("a", "k", succeed(9.9, &body_calls));
    EXPECT_TRUE(r.replayed);
    EXPECT_EQ(body_calls, 0) << "replayed configs must not re-run";
    EXPECT_STREQ(r.entry.oc.label(), "retried");
    ASSERT_TRUE(r.entry.value.has_value());
    EXPECT_EQ(*r.entry.value, 2.5);
    EXPECT_EQ(r.entry.log, "a: retried\n");

    // Replay appends nothing; a new config extends the same file.
    EXPECT_EQ(slurp(path), after_first);
    auto r2 = sup.run("b", "k", succeed(1.0));
    EXPECT_FALSE(r2.replayed);
    const auto jf = read_journal(path, "sweep");
    ASSERT_TRUE(jf.has_value());
    EXPECT_EQ(jf->entries.size(), 2u);
}

TEST_F(Supervisor, ResumeWithFreshJournalCompacts) {
    const std::string old_path = tmp_path("old.jsonl");
    const std::string new_path = tmp_path("new.jsonl");
    std::remove(old_path.c_str());
    std::remove(new_path.c_str());
    {
        options o;
        o.journal_path = old_path;
        supervisor sup(o, "sweep");
        sup.run("a", "k", succeed(1.0));
    }
    // Resume from the old journal but write a fresh one: replays are
    // re-recorded so the new journal is complete on its own.
    options o;
    o.resume_path = old_path;
    o.journal_path = new_path;
    supervisor sup(o, "sweep");
    auto r = sup.run("a", "k", succeed(7.0));
    EXPECT_TRUE(r.replayed);
    const auto jf = read_journal(new_path, "sweep");
    ASSERT_TRUE(jf.has_value());
    ASSERT_EQ(jf->entries.size(), 1u);
    ASSERT_TRUE(jf->entries[0].value.has_value());
    EXPECT_EQ(*jf->entries[0].value, 1.0) << "replay value, not the re-run";
}

TEST_F(Supervisor, ResumingADifferentSweepThrows) {
    const std::string path = tmp_path("wrong_sweep.jsonl");
    std::remove(path.c_str());
    {
        options o;
        o.journal_path = path;
        supervisor sup(o, "fig2_gpu_speedup");
    }
    options o;
    o.resume_path = path;
    EXPECT_THROW(supervisor(o, "fig4_fpga_opt"), std::runtime_error);
}

TEST_F(Supervisor, BreakerQuarantinesAfterThresholdAndProbesAfterCooldown) {
    options o;
    o.breaker.threshold = 2;
    o.breaker.cooldown = 1;
    supervisor sup(o, "sweep");
    const std::string key = "app/fpga_opt/stratix_10";

    int body_calls = 0;
    (void)sup.run("c1", key, fail(&body_calls));
    (void)sup.run("c2", key, fail(&body_calls));
    EXPECT_EQ(body_calls, 2);

    // Third encounter: breaker open, quarantined without running.
    auto q = sup.run("c3", key, fail(&body_calls));
    EXPECT_EQ(body_calls, 2);
    EXPECT_FALSE(q.replayed);
    EXPECT_EQ(q.entry.oc.st, outcome::status::quarantined);
    EXPECT_EQ(q.entry.oc.attempts, 0);
    EXPECT_NE(q.entry.oc.error.find("circuit open"), std::string::npos);
    EXPECT_NE(q.entry.oc.error.find(key), std::string::npos);

    // Cooldown of 1 served; the next encounter is the half-open probe.
    auto probe = sup.run("c4", key, succeed(1.0, &body_calls));
    EXPECT_EQ(body_calls, 3);
    EXPECT_EQ(probe.entry.oc.st, outcome::status::ok);
    EXPECT_EQ(sup.circuit().state_of(key), breaker::state::closed);
}

TEST_F(Supervisor, ReplayFeedsTheBreakerAcrossTheResumeBoundary) {
    const std::string path = tmp_path("breaker_resume.jsonl");
    std::remove(path.c_str());
    const std::string key = "app/fpga_opt/stratix_10";
    options o;
    o.breaker.threshold = 2;
    o.breaker.cooldown = 5;
    o.journal_path = path;
    {
        supervisor sup(o, "sweep");
        sup.run("c1", key, fail());
    }
    // Resume: the replayed failure still counts, so one more live failure
    // trips the breaker exactly as an uninterrupted run would.
    options r;
    r.breaker = o.breaker;
    r.resume_path = path;
    supervisor sup(r, "sweep");
    auto c1 = sup.run("c1", key, succeed(1.0));
    EXPECT_TRUE(c1.replayed);
    EXPECT_EQ(sup.circuit().consecutive_failures(key), 1);
    (void)sup.run("c2", key, fail());
    auto c3 = sup.run("c3", key, succeed(1.0));
    EXPECT_EQ(c3.entry.oc.st, outcome::status::quarantined);
}

TEST_F(Supervisor, DeadlineStatusCountsAsHardFailure) {
    using st = outcome::status;
    EXPECT_TRUE(supervisor::hard_failure(st::failed));
    EXPECT_TRUE(supervisor::hard_failure(st::deadline));
    EXPECT_FALSE(supervisor::hard_failure(st::ok));  // "ok" and "retried"
    EXPECT_FALSE(supervisor::hard_failure(st::skipped));
    EXPECT_FALSE(supervisor::hard_failure(st::quarantined));
    EXPECT_FALSE(supervisor::hard_failure(st::cancelled));
}

TEST_F(Supervisor, CancelledEntriesAreNotJournaled) {
    const std::string path = tmp_path("cancelled.jsonl");
    std::remove(path.c_str());
    {
        options o;
        o.journal_path = path;
        supervisor sup(o, "sweep");
        sup.run("a", "k", succeed(1.0));
        auto b = sup.run("b", "k", [](journal_entry&) {
            current().cancel(cancel_reason::manual);
            checkpoint();
        });
        EXPECT_EQ(b.entry.oc.st, outcome::status::cancelled);
        current().reset();
    }
    const auto jf = read_journal(path, "sweep");
    ASSERT_TRUE(jf.has_value());
    ASSERT_EQ(jf->entries.size(), 1u) << "cancelled config must re-run later";
    EXPECT_EQ(jf->entries[0].config, "a");

    // And on resume it does re-run.
    options o;
    o.resume_path = path;
    supervisor sup(o, "sweep");
    int calls = 0;
    auto r = sup.run("b", "k", succeed(2.0, &calls));
    EXPECT_FALSE(r.replayed);
    EXPECT_EQ(calls, 1);
}

TEST_F(Supervisor, BodyRunsUnderTheConfiguredDeadlineScope) {
    options o;
    o.deadline_ms = 1e6;  // far away: must arm, never fire
    supervisor sup(o, "sweep");
    bool armed = false;
    sup.run("a", "k",
            [&](journal_entry&) { armed = current().budget_ms() > 0.0; });
    EXPECT_TRUE(armed);
    // Scope left: disabled fast path again.
    EXPECT_FALSE(cancellation_requested());
    EXPECT_EQ(current().budget_ms(), 0.0);
}

TEST_F(Supervisor, MarksRetriesAndDegradedEndsButNotReplays) {
    const std::string path = tmp_path("marks.jsonl");
    std::remove(path.c_str());
    std::vector<std::pair<supervisor::mark, std::string>> marks;
    auto sink = [&](supervisor::mark m, std::string name) {
        marks.emplace_back(m, std::move(name));
    };
    options o;
    o.breaker.threshold = 1;
    o.breaker.cooldown = 5;
    o.journal_path = path;
    {
        supervisor sup(o, "sweep", sink);
        (void)sup.run("a", "ka", flaky(1.0));
        (void)sup.run("b", "kb", fail());
        (void)sup.run("c", "kb", succeed(1.0));  // breaker open
    }
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_EQ(marks[0].first, supervisor::mark::retried);
    EXPECT_EQ(marks[0].second.rfind("retry 1: a (backoff 25.000000 ms): ", 0),
              0u)
        << marks[0].second;
    EXPECT_EQ(marks[1].first, supervisor::mark::quarantined);
    EXPECT_EQ(marks[1].second.rfind("quarantined: c: circuit open", 0), 0u)
        << marks[1].second;

    // A replayed sweep marks nothing: its timeline was drawn the first time.
    marks.clear();
    options r = o;
    r.journal_path.clear();
    r.resume_path = path;
    supervisor sup(r, "sweep", sink);
    (void)sup.run("a", "ka", succeed(1.0));
    (void)sup.run("c", "kb", succeed(1.0));
    EXPECT_TRUE(marks.empty());

    // A deadline overrun is marked cancelled, naming its status.
    options d;
    d.deadline_ms = 10.0;
    supervisor timed(d, "sweep", sink);
    (void)timed.run("slow", "k", [](journal_entry&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        checkpoint();
    });
    ASSERT_EQ(marks.size(), 1u);
    EXPECT_EQ(marks[0].first, supervisor::mark::cancelled);
    EXPECT_EQ(marks[0].second.rfind("deadline: slow", 0), 0u)
        << marks[0].second;
}

/// A sweep of `n` configurations under `spec`, each probing the plan on
/// every attempt; returns each config's label:attempts.
std::string probing_sweep(const std::string& spec, const options& o, int n) {
    fault::plan p = fault::plan::parse(spec);
    fault::scope s(p);
    supervisor sup(o, "sweep");
    std::string out;
    for (int i = 0; i < n; ++i) {
        const journal_entry e =
            sup.run(std::to_string(i), std::to_string(i),
                    [](journal_entry&) {
                        for (int k = 0; k < 3; ++k)
                            fault::maybe_inject(fault::op_kind::alloc, "usm");
                    })
                .entry;
        (out += e.oc.label()) += ':';
        (out += std::to_string(e.oc.attempts)) += ';';
    }
    return out;
}

TEST_F(Supervisor, ResumeUnderAFaultPlanContinuesItsFiringState) {
    const std::string full = tmp_path("plan_full.jsonl");
    const std::string part = tmp_path("plan_part.jsonl");
    std::remove(full.c_str());
    std::remove(part.c_str());
    const std::string spec = "alloc%0.3;alloc@5x2;seed=11";
    options o;
    o.breaker.threshold = 0;
    o.journal_path = full;
    const std::string want = probing_sweep(spec, o, 12);

    // Keep the header and the first four entries, as a SIGKILL would.
    std::istringstream lines(slurp(full));
    std::string line, stump;
    for (int i = 0; i < 5 && std::getline(lines, line); ++i)
        stump += line + "\n";
    EXPECT_NE(stump.find("\"plan\":"), std::string::npos);
    std::ofstream(part, std::ios::binary) << stump;

    options r;
    r.breaker.threshold = 0;
    r.resume_path = part;
    EXPECT_EQ(probing_sweep(spec, r, 12), want);
    EXPECT_EQ(slurp(part), slurp(full));
}

TEST_F(Supervisor, OneRuleDecidesWhatTheOutcomeLogRecords) {
    auto logged = [](const options& o, const journal_entry& e) {
        const supervisor sup(o, "sweep");
        ResultDatabase db;
        sup.record(db, e);
        return db.outcomes().size() == 1;
    };
    journal_entry ok;
    ok.config = "ok";
    journal_entry retried = ok;
    retried.oc.attempts = 2;
    journal_entry failed = ok;
    failed.oc.st = outcome::status::failed;
    const journal_entry skipped = supervisor::skipped("s", "n/a here");
    EXPECT_EQ(skipped.oc.st, outcome::status::skipped);

    // A clean run keeps its historical report: only what degraded.
    const options clean;
    EXPECT_FALSE(logged(clean, ok));
    EXPECT_FALSE(logged(clean, skipped));
    EXPECT_TRUE(logged(clean, retried));
    EXPECT_TRUE(logged(clean, failed));
    // Supervising beyond breaker and retries, or injecting, logs everything.
    options journaled;
    journaled.journal_path = tmp_path("rule.jsonl");
    EXPECT_TRUE(logged(journaled, ok));
    EXPECT_TRUE(logged(journaled, skipped));
    fault::plan p = fault::plan::parse("seed=3");
    fault::scope s(p);
    EXPECT_TRUE(logged(clean, ok));
    EXPECT_TRUE(logged(clean, skipped));
}

}  // namespace
}  // namespace altis::resilience
