#include "perf/resource_model.hpp"

#include <gtest/gtest.h>

namespace altis::perf {
namespace {

kernel_stats base_kernel() {
    kernel_stats k;
    k.name = std::string("k");
    k.form = kernel_form::nd_range;
    k.global_items = 1 << 20;
    k.wg_size = 64;
    k.static_fp32_ops = 20;
    k.static_int_ops = 30;
    k.static_branches = 4;
    k.accessor_args = 3;
    return k;
}

TEST(ResourceModel, DspCountScalesWithDatapathWidth) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k = base_kernel();
    const double d1 = estimate_kernel_resources(k, dev).dsps;
    k.simd = 4;
    const double d4 = estimate_kernel_resources(k, dev).dsps;
    EXPECT_DOUBLE_EQ(d4, d1 * 4.0);
    k.simd = 1;
    k.unroll = 8;
    EXPECT_DOUBLE_EQ(estimate_kernel_resources(k, dev).dsps, d1 * 8.0);
}

TEST(ResourceModel, Fp64CostsFourDspsPerOp) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k = base_kernel();
    k.static_fp32_ops = 0;
    k.static_fp64_ops = 10;
    EXPECT_DOUBLE_EQ(estimate_kernel_resources(k, dev).dsps, 40.0);
}

TEST(ResourceModel, ReplicationMultipliesEverything) {
    const auto& dev = device_by_name("agilex");
    kernel_stats k = base_kernel();
    const resource_usage u1 = estimate_kernel_resources(k, dev);
    k.replication = 4;
    const resource_usage u4 = estimate_kernel_resources(k, dev);
    EXPECT_DOUBLE_EQ(u4.alms, u1.alms * 4.0);
    EXPECT_DOUBLE_EQ(u4.dsps, u1.dsps * 4.0);
}

// Sec. 4: dynamically-sized DPCT accessors force 16 KiB per shared variable;
// PF Float's single shared double occupied 16 KiB instead of 8 bytes.
TEST(ResourceModel, DynamicLocalSizeReservesSixteenKiB) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k = base_kernel();
    k.pattern = local_pattern::scalar;
    k.local_arrays = 1;
    k.local_mem_bytes = 8.0;  // one double
    k.dynamic_local_size = true;
    const double dynamic_brams = estimate_kernel_resources(k, dev).brams;
    k.dynamic_local_size = false;
    const double exact_brams = estimate_kernel_resources(k, dev).brams;
    // 16 KiB spans ceil(16384/2560) = 7 M20K blocks; 8 bytes needs one.
    EXPECT_DOUBLE_EQ(dynamic_brams, 7.0);
    EXPECT_DOUBLE_EQ(exact_brams, 1.0);
}

// Sec. 4: SRAD passed eleven accessor *objects*, exceeding the Stratix 10;
// passing pointers instead made the design fit.
TEST(ResourceModel, AccessorObjectsVsPointersDecidesFit) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k = base_kernel();
    k.accessor_args = 11;
    k.pass_accessor_objects = true;
    k.static_fp32_ops = 60;
    k.static_int_ops = 120;
    k.static_branches = 30;
    std::vector<kernel_stats> design{k, k};  // two such kernels
    const resource_usage obj = estimate_design_resources(design, dev);
    EXPECT_FALSE(obj.fits);
    EXPECT_FALSE(obj.failure_reason.empty());

    for (auto& kk : design) kk.pass_accessor_objects = false;
    const resource_usage ptr = estimate_design_resources(design, dev);
    EXPECT_TRUE(ptr.fits);
    EXPECT_LT(ptr.alms, obj.alms);
}

TEST(ResourceModel, ControlComplexityDegradesFmax) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats simple = base_kernel();
    simple.control_complexity = 1;
    kernel_stats branchy = base_kernel();
    branchy.control_complexity = 9;  // ParticleFilter-like
    const double f_simple = estimate_kernel_resources(simple, dev).fmax_mhz;
    const double f_branchy = estimate_kernel_resources(branchy, dev).fmax_mhz;
    EXPECT_GT(f_simple, 300.0);
    EXPECT_LT(f_branchy, 130.0);  // the paper's PF designs run at ~105 MHz
}

TEST(ResourceModel, AgilexClocksHigherThanStratix10) {
    // Table 3: every design achieves a higher frequency on Agilex.
    kernel_stats k = base_kernel();
    k.control_complexity = 2;
    const double s10 =
        estimate_kernel_resources(k, device_by_name("stratix_10")).fmax_mhz;
    const double agx =
        estimate_kernel_resources(k, device_by_name("agilex")).fmax_mhz;
    EXPECT_GT(agx, s10);
}

TEST(ResourceModel, TimingViolations) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k = base_kernel();
    k.pattern = local_pattern::congested;
    k.local_arrays = 2;
    k.local_mem_bytes = 8192;
    k.local_accesses = 10;

    k.unroll = 1;
    k.wg_size = 64;
    EXPECT_TRUE(estimate_kernel_resources(k, dev).timing_clean);

    k.unroll = 4;  // unrolling arbiter-managed local memory
    EXPECT_FALSE(estimate_kernel_resources(k, dev).timing_clean);

    k.unroll = 1;
    k.wg_size = 256;  // large work-group on congested memory (Sec. 4)
    EXPECT_FALSE(estimate_kernel_resources(k, dev).timing_clean);

    kernel_stats wide = base_kernel();
    wide.pattern = local_pattern::banked;
    wide.local_arrays = 1;
    wide.local_mem_bytes = 4096;
    wide.unroll = 40;  // beyond the banking limit (LavaMD past 30x)
    EXPECT_FALSE(estimate_kernel_resources(wide, dev).timing_clean);
}

TEST(ResourceModel, DesignAggregatesShellAndKernels) {
    const auto& dev = device_by_name("stratix_10");
    kernel_stats k = base_kernel();
    const resource_usage kernel_only = estimate_kernel_resources(k, dev);
    const resource_usage design = estimate_design_resources({k}, dev);
    EXPECT_NEAR(design.alms,
                kernel_only.alms +
                    calibration::kShellAlmFrac * static_cast<double>(dev.total_alms),
                1.0);
    EXPECT_NEAR(design.brams,
                kernel_only.brams + calibration::kShellBramFrac *
                                        static_cast<double>(dev.total_brams),
                1.0);
}

TEST(ResourceModel, DesignFmaxIsMinOverKernels) {
    const auto& dev = device_by_name("agilex");
    kernel_stats fast = base_kernel();
    fast.control_complexity = 1;
    kernel_stats slow = base_kernel();
    slow.control_complexity = 8;
    const resource_usage design = estimate_design_resources({fast, slow}, dev);
    EXPECT_DOUBLE_EQ(design.fmax_mhz,
                     estimate_kernel_resources(slow, dev).fmax_mhz);
}

TEST(ResourceModel, UtilizationFractionsConsistent) {
    const auto& dev = device_by_name("agilex");
    const resource_usage u = estimate_design_resources({base_kernel()}, dev);
    EXPECT_NEAR(u.alm_frac, u.alms / static_cast<double>(dev.total_alms), 1e-12);
    EXPECT_NEAR(u.bram_frac, u.brams / static_cast<double>(dev.total_brams), 1e-12);
    EXPECT_NEAR(u.dsp_frac, u.dsps / static_cast<double>(dev.total_dsps), 1e-12);
}

}  // namespace
}  // namespace altis::perf
