// Per-application contract glue: which runtime a variant uses, which devices
// a variant may target, and the result struct every app's run() returns.
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/registry.hpp"
#include "perf/device.hpp"
#include "perf/overhead.hpp"

namespace altis {
class OptionParser;
}

namespace altis::apps {

struct AppResult {
    double kernel_ms = 0.0;
    double non_kernel_ms = 0.0;
    double total_ms = 0.0;
    double error = 0.0;  ///< verification error metric (0 when exact)
};

[[nodiscard]] inline perf::runtime_kind runtime_for(Variant v) {
    return v == Variant::cuda ? perf::runtime_kind::cuda
                              : perf::runtime_kind::sycl;
}

/// The paper's variant/device matrix: the original CUDA code only runs on
/// NVIDIA GPUs; the DPCT-migrated and GPU-optimized SYCL run on CPU and
/// GPUs; the FPGA-refactored variants only target FPGAs.
[[nodiscard]] inline bool variant_allowed(Variant v, const perf::device_spec& d) {
    switch (v) {
        case Variant::cuda:
            return d.kind == perf::device_kind::gpu && d.name != "max_1100";
        case Variant::sycl_base:
        case Variant::sycl_opt:
            return d.kind != perf::device_kind::fpga;
        case Variant::fpga_base:
        case Variant::fpga_opt:
            return d.kind == perf::device_kind::fpga;
    }
    return false;
}

/// Registers an app whose run() follows the standard contract; the registry
/// entry runs `cfg.passes` trials and reports kernel_time / total_time (ms).
void register_standard_app(std::string name, std::string description,
                           std::vector<Variant> variants,
                           AppResult (*run)(const RunConfig&));

/// Registers every application in the suite (idempotent).
void register_all_apps();

/// The run configuration a suite CLI's parsed --size/--device/--passes/
/// --variant select. Throws OptionError naming the flag on an unknown
/// device or variant.
[[nodiscard]] RunConfig read_run_config(const OptionParser& opts);

/// Circuit-breaker key of a sweep configuration, "<app>/<variant>/<device>"
/// (e.g. "KMeans/fpga_opt/stratix_10"): repeated hard failures of one
/// app/variant/device open the circuit for its remaining encounters.
[[nodiscard]] std::string breaker_key(const std::string& app, Variant v,
                                      const std::string& device);

/// Label of one sweep configuration: its breaker key plus "/size<N>", e.g.
/// "KMeans/fpga_opt/stratix_10/size2". Journals and outcome logs use it.
[[nodiscard]] std::string config_label(const std::string& app, Variant v,
                                       const std::string& device, int size);

/// Opt-in for the out-of-order graph scheduler in apps that were ported to
/// explicit event dependencies (fdtd2d, cfd): ALTIS_OOO=1 in the
/// environment. Off by default so golden figure outputs -- produced through
/// default in-order queues -- stay byte-identical.
[[nodiscard]] inline bool ooo_enabled() {
    const char* v = std::getenv("ALTIS_OOO");
    return v != nullptr && v[0] == '1' && v[1] == '\0';
}

inline const perf::device_spec& resolve_device(const RunConfig& cfg) {
    const perf::device_spec& dev = perf::device_by_name(cfg.device);
    if (!variant_allowed(cfg.variant, dev))
        throw std::invalid_argument(std::string("variant ") +
                                    to_string(cfg.variant) +
                                    " cannot target device " + dev.name);
    return dev;
}

}  // namespace altis::apps
