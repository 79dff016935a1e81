#include "apps/common/verify.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace altis::apps {
namespace {

TEST(Verify, MaxRelErrorZeroForIdentical) {
    const std::vector<float> a{1.0f, -2.0f, 3.5f};
    EXPECT_DOUBLE_EQ(max_rel_error<float>(a, a), 0.0);
}

TEST(Verify, MaxRelErrorRelativeForLargeValues) {
    const std::vector<float> e{100.0f};
    const std::vector<float> a{101.0f};
    EXPECT_NEAR(max_rel_error<float>(e, a), 0.01, 1e-6);
}

TEST(Verify, MaxRelErrorAbsoluteNearZero) {
    // Denominator floors at 1: tiny expected values don't explode the error.
    const std::vector<float> e{1e-6f};
    const std::vector<float> a{2e-6f};
    EXPECT_LT(max_rel_error<float>(e, a), 1e-5);
}

TEST(Verify, MaxRelErrorPicksWorstElement) {
    const std::vector<double> e{10.0, 20.0, 30.0};
    const std::vector<double> a{10.0, 22.0, 30.0};
    EXPECT_NEAR(max_rel_error<double>(e, a), 0.1, 1e-12);
}

TEST(Verify, SizeMismatchThrows) {
    const std::vector<int> e{1, 2};
    const std::vector<int> a{1};
    EXPECT_THROW((void)mismatch_count<int>(e, a), std::invalid_argument);
    const std::vector<float> ef{1.0f};
    const std::vector<float> af{1.0f, 2.0f};
    EXPECT_THROW((void)max_rel_error<float>(ef, af), std::invalid_argument);
}

TEST(Verify, MismatchCount) {
    const std::vector<int> e{1, 2, 3, 4};
    const std::vector<int> a{1, 9, 3, 8};
    EXPECT_EQ(mismatch_count<int>(e, a), 2u);
}

TEST(Verify, RequireCloseThrowsAboveTolerance) {
    EXPECT_NO_THROW(require_close(0.001, 0.01, "x"));
    EXPECT_NO_THROW(require_close(0.01, 0.01, "x"));
    EXPECT_THROW(require_close(0.02, 0.01, "x"), verification_error);
    // NaN error must fail, not pass, the check.
    EXPECT_THROW(require_close(std::nan(""), 0.01, "x"), verification_error);
}

}  // namespace
}  // namespace altis::apps
