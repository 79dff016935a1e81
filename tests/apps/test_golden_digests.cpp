// Bit-exactness pins for the host references that run on the thread pool.
// Each golden() output is hashed (FNV-1a 64 over its bytes) and compared with
// the digest of the serial reference loops, so a data-parallel golden() that
// drifts by a single ulp -- a reordered reduction, a loop that reads what the
// same loop writes -- fails here even where the device-vs-golden tolerance
// would hide it. Size 1 is the preset every app runs at; the size-2 cases
// keep the preset's problem size and cut its iteration count so they run
// fast.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "apps/cfd/cfd.hpp"
#include "apps/kmeans/kmeans.hpp"
#include "apps/lavamd/lavamd.hpp"
#include "apps/mandelbrot/mandelbrot.hpp"
#include "apps/particlefilter/particlefilter.hpp"
#include "apps/raytracing/raytracing.hpp"
#include "apps/srad/srad.hpp"

namespace altis::apps {
namespace {

/// FNV-1a 64, chained: feed several outputs through one running hash.
std::uint64_t fnv1a(std::span<const std::byte> bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
    for (const std::byte b : bytes) {
        h ^= static_cast<std::uint64_t>(b);
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& v,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
    return fnv1a(std::as_bytes(std::span<const T>(v)), h);
}

template <typename Real>
std::uint64_t cfd_digest(int size, int iterations) {
    cfd::params p = cfd::params::preset(size);
    if (iterations > 0) p.iterations = iterations;
    std::vector<Real> vars = cfd::initial_variables<Real>(p);
    cfd::golden(p, cfd::make_mesh(p), vars);
    return fnv1a(vars);
}

std::uint64_t pf_digest(int size, particlefilter::flavor f, int frames) {
    particlefilter::params p = particlefilter::params::preset(size, f);
    if (frames > 0) p.frames = frames;
    const auto e =
        particlefilter::golden(p, f, particlefilter::make_video(p));
    return fnv1a(e.ye, fnv1a(e.xe));
}

std::uint64_t lavamd_digest(int size) {
    const lavamd::params p = lavamd::params::preset(size);
    return fnv1a(lavamd::golden(p, lavamd::make_particles(p)));
}

std::uint64_t mandelbrot_digest(int size, int max_iters) {
    mandelbrot::params p = mandelbrot::params::preset(size);
    if (max_iters > 0) p.max_iters = max_iters;
    std::vector<std::uint16_t> iters(p.pixels());
    mandelbrot::golden(p, iters);
    return fnv1a(iters);
}

std::uint64_t raytracing_digest(int size, raytracing::rng_kind kind,
                                int samples) {
    raytracing::params p = raytracing::params::preset(size);
    if (samples > 0) p.samples = samples;
    return fnv1a(raytracing::golden(p, kind));
}

std::uint64_t srad_digest(int size, int iterations) {
    srad::params p = srad::params::preset(size);
    if (iterations > 0) p.iterations = iterations;
    std::vector<float> image = srad::make_image(p);
    srad::golden(p, image);
    return fnv1a(image);
}

std::uint64_t kmeans_digest(int size, int iterations) {
    kmeans::params p = kmeans::params::preset(size);
    if (iterations > 0) p.iterations = iterations;
    const kmeans::clustering c = kmeans::golden(p, kmeans::make_dataset(p));
    return fnv1a(c.assignment, fnv1a(c.centers));
}

struct digest_case {
    const char* name;
    std::function<std::uint64_t()> run;
    std::uint64_t expected;
};

/// Digests recorded from the serial reference loops. A change here means a
/// golden() output changed, which no scheduling change may do.
std::vector<digest_case> cases() {
    using particlefilter::flavor;
    using raytracing::rng_kind;
    return {
        {"cfd_s1", [] { return cfd_digest<float>(1, 0); },
         0xf169a4b36e87fec6ULL},
        {"cfd_s2_iter4", [] { return cfd_digest<float>(2, 4); },
         0x3b5b9bfb7f719dddULL},
        {"cfd_fp64_s1", [] { return cfd_digest<double>(1, 0); },
         0x0bb3f1599e742b2aULL},
        {"cfd_fp64_s2_iter4", [] { return cfd_digest<double>(2, 4); },
         0x5d0263495779d7d2ULL},
        {"pf_naive_s1", [] { return pf_digest(1, flavor::naive, 0); },
         0x7bd7f54096df1cf8ULL},
        {"pf_naive_s2_frames4", [] { return pf_digest(2, flavor::naive, 4); },
         0xc89684941c9c008dULL},
        {"pf_float_s1", [] { return pf_digest(1, flavor::floatopt, 0); },
         0xa4b8131cdc60757cULL},
        {"pf_float_s2_frames2",
         [] { return pf_digest(2, flavor::floatopt, 2); },
         0xfdc8272664b228a6ULL},
        {"lavamd_s1", [] { return lavamd_digest(1); },
         0xeaac2a73ef20ff7eULL},
        {"lavamd_s2", [] { return lavamd_digest(2); },
         0x3f67b085e609c914ULL},
        {"mandelbrot_s1", [] { return mandelbrot_digest(1, 0); },
         0x1a0f8c00f8570a49ULL},
        {"mandelbrot_s2_iters64", [] { return mandelbrot_digest(2, 64); },
         0x5ac88ddf7c028665ULL},
        {"raytracing_philox_s1",
         [] { return raytracing_digest(1, rng_kind::philox, 0); },
         0xcb12be8a304a93b3ULL},
        {"raytracing_xorwow_s1",
         [] { return raytracing_digest(1, rng_kind::xorwow, 0); },
         0x2a52d9b7a2b02887ULL},
        {"raytracing_philox_s2_samples1",
         [] { return raytracing_digest(2, rng_kind::philox, 1); },
         0x57fd080bf1c32b0bULL},
        {"srad_s1", [] { return srad_digest(1, 0); },
         0x05aef5eb6c8d2a59ULL},
        {"srad_s2_iter3", [] { return srad_digest(2, 3); },
         0xe2938013ef3632fdULL},
        {"kmeans_s1", [] { return kmeans_digest(1, 0); },
         0x366d2f87c617b124ULL},
        {"kmeans_s2_iter3", [] { return kmeans_digest(2, 3); },
         0xe7476c84b926ce09ULL},
    };
}

/// Names the case in gtest output instead of dumping its bytes.
void PrintTo(const digest_case& c, std::ostream* os) { *os << c.name; }

class GoldenDigest : public ::testing::TestWithParam<digest_case> {};

TEST_P(GoldenDigest, MatchesSerialReference) {
    const digest_case& c = GetParam();
    const std::uint64_t got = c.run();
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.expected) << c.name << " digest is " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, GoldenDigest, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<digest_case>& info) {
        return std::string(info.param.name);
    });

}  // namespace
}  // namespace altis::apps
