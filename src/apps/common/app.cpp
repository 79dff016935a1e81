#include "apps/common/app.hpp"

#include <algorithm>

#include "core/option_parser.hpp"
#include "core/result_database.hpp"

namespace altis::apps {

void register_standard_app(std::string name, std::string description,
                           std::vector<Variant> variants,
                           AppResult (*run)(const RunConfig&)) {
    AppInfo info;
    info.name = std::move(name);
    info.description = std::move(description);
    info.variants = std::move(variants);
    info.run = [run](const RunConfig& cfg, ResultDatabase& db) {
        const std::string atts = "size=" + std::to_string(cfg.size) +
                                 ",device=" + cfg.device +
                                 ",variant=" + std::string(to_string(cfg.variant));
        for (int pass = 0; pass < cfg.passes; ++pass) {
            const AppResult r = run(cfg);
            db.add_result("kernel_time", atts, "ms", r.kernel_ms);
            db.add_result("non_kernel_time", atts, "ms", r.non_kernel_ms);
            db.add_result("total_time", atts, "ms", r.total_ms);
        }
    };
    Registry::instance().add(std::move(info));
}

std::string breaker_key(const std::string& app, Variant v,
                        const std::string& device) {
    return app + "/" + to_string(v) + "/" + device;
}

std::string config_label(const std::string& app, Variant v,
                         const std::string& device, int size) {
    return breaker_key(app, v, device) + "/size" + std::to_string(size);
}

RunConfig read_run_config(const OptionParser& opts) {
    RunConfig cfg;
    cfg.size = static_cast<int>(opts.get_int("size"));
    cfg.device = opts.get_string("device");
    cfg.passes = static_cast<int>(opts.get_int("passes"));
    const auto devices = perf::device_catalog();
    if (std::none_of(devices.begin(), devices.end(),
                     [&](const perf::device_spec& d) {
                         return d.name == cfg.device;
                     }))
        throw OptionError("--device: unknown device '" + cfg.device + "'");
    const std::string vname = opts.get_string("variant");
    for (const Variant v : {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
                            Variant::fpga_base, Variant::fpga_opt})
        if (vname == to_string(v)) {
            cfg.variant = v;
            return cfg;
        }
    throw OptionError("--variant: unknown variant '" + vname + "'");
}

}  // namespace altis::apps
