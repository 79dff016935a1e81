#include "core/option_parser.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

namespace altis {

namespace {

bool parse_int(const std::string& v, long long& out) {
    char* end = nullptr;
    errno = 0;
    out = std::strtoll(v.c_str(), &end, 10);
    return end != v.c_str() && *end == '\0' && errno != ERANGE;
}

bool parse_number(const std::string& v, double& out) {
    char* end = nullptr;
    out = std::strtod(v.c_str(), &end);
    return end != v.c_str() && *end == '\0' && std::isfinite(out);
}

bool one_of(std::string_view choices, std::string_view v) {
    for (std::size_t pos = 0; pos <= choices.size();) {
        const std::size_t bar = std::min(choices.find('|', pos), choices.size());
        if (choices.substr(pos, bar - pos) == v) return true;
        pos = bar + 1;
    }
    return false;
}

/// The one kind/range/choices check every row goes through.
void check(const option_row& r, const std::string& value,
           const std::string& origin) {
    if (r.kind == option_kind::flag || (value.empty() && r.def.empty())) return;
    std::ostringstream why;
    why << std::setprecision(15);
    if (r.kind == option_kind::text) {
        if (r.choices.empty() || one_of(r.choices, value)) return;
        why << " must be one of " << r.choices;
    } else {
        long long i = 0;
        double d = 0.0;
        const bool ok = r.kind == option_kind::integer
                            ? parse_int(value, i) && i >= r.min && i <= r.max
                            : parse_number(value, d) && d >= r.min && d <= r.max;
        if (ok) return;
        why << (r.kind == option_kind::integer ? " expects an integer in ["
                                               : " expects a finite number in [")
            << r.min << ", " << r.max << "]";
    }
    throw OptionError(origin + why.str() + ", got: " + value);
}

}  // namespace

void OptionParser::add(option_row row) {
    if (find(row.name) != nullptr)
        throw OptionError("duplicate option: --" + row.name);
    std::string value = row.def;
    options_.push_back(Option{std::move(row), std::move(value), {}});
}

void OptionParser::add_option(const std::string& long_name,
                              const std::string& default_value,
                              const std::string& help) {
    add({.name = long_name, .def = default_value, .help = help});
}

void OptionParser::add_flag(const std::string& long_name, const std::string& help) {
    add({.name = long_name, .def = "0", .kind = option_kind::flag, .help = help});
}

OptionParser::Option* OptionParser::find(const std::string& name) {
    for (auto& o : options_)
        if (o.row.name == name) return &o;
    return nullptr;
}

const OptionParser::Option* OptionParser::find(const std::string& name) const {
    for (const auto& o : options_)
        if (o.row.name == name) return &o;
    return nullptr;
}

bool OptionParser::parse(int argc, const char* const* argv, std::ostream& out) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            print_usage(out);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string inline_value;
        bool has_inline = false;
        if (auto eq = name.find('='); eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name.resize(eq);
            has_inline = true;
        }
        Option* opt = find(name);
        if (opt == nullptr) throw OptionError("unknown option: --" + name);
        opt->origin = "--" + name;
        if (opt->row.kind == option_kind::flag) {
            if (has_inline) throw OptionError(opt->origin + " takes no value");
            opt->value.assign(1, '1');
        } else if (has_inline) {
            opt->value = inline_value;
        } else {
            if (i + 1 >= argc)
                throw OptionError(opt->origin + " requires a value");
            opt->value = argv[++i];
        }
    }
    for (auto& o : options_) {
        if (o.origin.empty() && !o.row.env.empty()) {
            const char* env = std::getenv(o.row.env.c_str());
            if (env != nullptr && *env != '\0') {
                o.value = env;
                if (o.row.kind == option_kind::flag)
                    o.value.assign(1, o.value == "0" ? '0' : '1');
                o.origin = "$" + o.row.env;
            }
        }
        check(o.row, o.value, o.origin.empty() ? "--" + o.row.name : o.origin);
    }
    return true;
}

std::string OptionParser::get_string(const std::string& name) const {
    const Option* opt = find(name);
    if (opt == nullptr) throw OptionError("option not registered: --" + name);
    return opt->value;
}

std::int64_t OptionParser::get_int(const std::string& name) const {
    const std::string v = get_string(name);
    long long parsed = 0;
    if (!parse_int(v, parsed))
        throw OptionError("option --" + name + " expects an integer, got: " + v);
    return parsed;
}

double OptionParser::get_double(const std::string& name) const {
    const std::string v = get_string(name);
    double parsed = 0.0;
    if (!parse_number(v, parsed))
        throw OptionError("option --" + name + " expects a number, got: " + v);
    return parsed;
}

bool OptionParser::get_flag(const std::string& name) const {
    return get_string(name) == "1";
}

std::vector<option_row> OptionParser::rows() const {
    std::vector<option_row> out;
    out.reserve(options_.size());
    for (const auto& o : options_) out.push_back(o.row);
    return out;
}

void OptionParser::print_usage(std::ostream& out) const {
    out << "options:\n";
    for (const auto& o : options_) {
        out << "  --" << o.row.name;
        if (o.row.kind != option_kind::flag)
            out << " <value> (default: " << o.row.def << ")";
        out << "\n      " << o.row.help << '\n';
    }
}

void add_standard_options(OptionParser& parser) {
    parser.add({.name = "size", .def = "1", .kind = option_kind::integer,
                .min = 1, .max = 3, .help = "problem size preset: 1, 2 or 3"});
    parser.add({.name = "device", .def = "xeon_6128",
                .help = "target device: xeon_6128, rtx_2080, a100, max_1100, "
                        "stratix_10, agilex"});
    parser.add({.name = "passes", .def = "3", .kind = option_kind::integer,
                .min = 1, .max = 2147483647, .help = "number of measured trials"});
    parser.add_flag("verbose", "print per-trial details");
    parser.add_flag("quiet", "suppress the summary table");
}

}  // namespace altis
