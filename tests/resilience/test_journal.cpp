#include "resilience/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace altis::resilience {
namespace {

std::string tmp_path(const std::string& name) {
    return ::testing::TempDir() + "altis_journal_" + name;
}

journal_entry sample_entry() {
    journal_entry e;
    e.config = "KMeans/fpga_opt/stratix_10/size2";
    e.oc.attempts = 3;  // ok after 3 attempts: "retried"
    e.oc.backoff_ms = 75.5;
    e.value = 12.625;
    e.log = "KMeans: attempt 1 failed (injected), retrying after 25 ms\n"
            "KMeans: ok (2 passes, verified, 3 attempts, 75.5 ms backoff)\n";
    journal_series s;
    s.test = "kernel_time";
    s.atts = "size=2,device=stratix_10";
    s.unit = "ms";
    s.values = {1.5, 0.1, 1e300, -0.0};
    e.results.push_back(s);
    return e;
}

TEST(Journal, LineRoundTripIsExact) {
    const journal_entry e = sample_entry();
    const std::string line = to_line(e);
    const auto back = parse_line(line);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->config, e.config);
    EXPECT_EQ(back->oc.st, e.oc.st);
    EXPECT_STREQ(back->oc.label(), "retried");
    EXPECT_EQ(back->oc.attempts, e.oc.attempts);
    EXPECT_EQ(back->oc.backoff_ms, e.oc.backoff_ms);
    EXPECT_EQ(back->oc.error, e.oc.error);
    ASSERT_TRUE(back->value.has_value());
    EXPECT_EQ(*back->value, *e.value);
    EXPECT_EQ(back->log, e.log);
    ASSERT_EQ(back->results.size(), 1u);
    EXPECT_EQ(back->results[0].test, e.results[0].test);
    EXPECT_EQ(back->results[0].atts, e.results[0].atts);
    EXPECT_EQ(back->results[0].unit, e.results[0].unit);
    EXPECT_EQ(back->results[0].values, e.results[0].values);
    // Byte-identity on resume depends on serialization being a fixed point.
    EXPECT_EQ(to_line(*back), line);
}

TEST(Journal, EscapesAndAbsentValueSurvive) {
    journal_entry e;
    e.config = "weird \"config\"\\with\nnewline\tand\x01control";
    e.oc.st = outcome::status::failed;
    e.oc.error = "injected fault: alloc@1 on \"usm_host\"";
    e.value.reset();
    const auto back = parse_line(to_line(e));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->config, e.config);
    EXPECT_EQ(back->oc.error, e.oc.error);
    EXPECT_FALSE(back->value.has_value());
}

TEST(Journal, PlanStateIsWrittenOnlyWhenPresent) {
    journal_entry e = sample_entry();
    EXPECT_EQ(to_line(e).find("\"plan\""), std::string::npos)
        << "clean runs must keep the historical line format";
    e.plan = "3,1,2,3,4,5,6";
    const auto back = parse_line(to_line(e));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->plan, e.plan);
    EXPECT_EQ(to_line(*back), to_line(e));
}

TEST(Journal, TornOrGarbageLinesParseToNothing) {
    EXPECT_FALSE(parse_line("").has_value());
    EXPECT_FALSE(parse_line("not json").has_value());
    const std::string line = to_line(sample_entry());
    EXPECT_FALSE(parse_line(line.substr(0, line.size() / 2)).has_value());
}

TEST(Journal, WriterCreatesHeaderAtomicallyAndReaderRoundTrips) {
    const std::string path = tmp_path("fresh.jsonl");
    std::remove(path.c_str());
    {
        journal_writer w(path, "fig4_fpga_opt", /*append=*/false);
        EXPECT_EQ(w.path(), path);
        w.append(sample_entry());
        // No leftover temp file once construction finished.
        std::ifstream tmp(path + ".tmp");
        EXPECT_FALSE(tmp.good());
    }
    const auto jf = read_journal(path, "fig4_fpga_opt");
    ASSERT_TRUE(jf.has_value());
    EXPECT_EQ(jf->sweep, "fig4_fpga_opt");
    ASSERT_EQ(jf->entries.size(), 1u);
    EXPECT_EQ(jf->entries[0].config, sample_entry().config);
}

TEST(Journal, AppendModeContinuesAnExistingJournal) {
    const std::string path = tmp_path("append.jsonl");
    std::remove(path.c_str());
    {
        journal_writer w(path, "sweep", false);
        journal_entry e = sample_entry();
        e.config = "first";
        w.append(e);
    }
    {
        journal_writer w(path, "sweep", /*append=*/true);
        journal_entry e = sample_entry();
        e.config = "second";
        w.append(e);
    }
    const auto jf = read_journal(path, "sweep");
    ASSERT_TRUE(jf.has_value());
    ASSERT_EQ(jf->entries.size(), 2u);
    EXPECT_EQ(jf->entries[0].config, "first");
    EXPECT_EQ(jf->entries[1].config, "second");
}

TEST(Journal, ReaderToleratesATornFinalLine) {
    const std::string path = tmp_path("torn.jsonl");
    std::remove(path.c_str());
    {
        journal_writer w(path, "sweep", false);
        w.append(sample_entry());
    }
    // Simulate a SIGKILL mid-append: half a line, no trailing newline.
    const std::string line = to_line(sample_entry());
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << line.substr(0, line.size() / 3);
    }
    const auto jf = read_journal(path, "sweep");
    ASSERT_TRUE(jf.has_value());
    EXPECT_EQ(jf->entries.size(), 1u) << "torn tail must be dropped";
}

TEST(Journal, DuplicateConfigsKeepTheFirstOccurrence) {
    const std::string path = tmp_path("dup.jsonl");
    std::remove(path.c_str());
    {
        journal_writer w(path, "sweep", false);
        journal_entry e = sample_entry();
        e.oc.st = outcome::status::failed;
        w.append(e);
        e.oc.st = outcome::status::ok;
        w.append(e);
    }
    const auto jf = read_journal(path, "sweep");
    ASSERT_TRUE(jf.has_value());
    ASSERT_EQ(jf->entries.size(), 1u);
    EXPECT_EQ(jf->entries[0].oc.st, outcome::status::failed);
}

TEST(Journal, MissingFileIsAFreshRunNotAnError) {
    EXPECT_FALSE(
        read_journal(tmp_path("never_written.jsonl"), "sweep").has_value());
}

TEST(Journal, SweepMismatchThrows) {
    const std::string path = tmp_path("mismatch.jsonl");
    std::remove(path.c_str());
    { journal_writer w(path, "fig2_gpu_speedup", false); }
    EXPECT_THROW((void)read_journal(path, "fig4_fpga_opt"),
                 std::runtime_error);
}

TEST(Journal, UnwritablePathThrows) {
    EXPECT_THROW(journal_writer("/nonexistent_dir_zz/j.jsonl", "s", false),
                 std::runtime_error);
}

}  // namespace
}  // namespace altis::resilience
