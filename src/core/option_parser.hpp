// Minimal command-line option parser modeled on the one Altis ships: every
// benchmark binary accepts `--size {1,2,3}`, `--device <name>`, `--passes N`
// plus app-specific options registered by the harness.
//
// Options are declarative rows (name, env var, default, help, kind, range).
// parse() resolves every row once -- argv, then the row's environment
// variable, then its default -- and checks each resolved value against its
// kind, range and choices in one place, so a bad value is one OptionError
// naming where it came from (`--deadline-ms` or `$ALTIS_DEADLINE_MS`).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace altis {

class OptionError : public std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// How parse() checks a row's resolved value. A row whose default is empty
/// accepts an empty value as "unset" (e.g. `--deadline-ms`: no deadline).
enum class option_kind {
    text,     ///< any string (restricted by `choices` when given)
    flag,     ///< presence switch; takes no value on the command line
    integer,  ///< base-10 integer within [min, max]
    number,   ///< finite floating-point value within [min, max]
};

/// One option. Fields are in designated-initializer order.
struct option_row {
    std::string name;  ///< without leading dashes
    std::string def;   ///< default value ("0" for flags)
    option_kind kind = option_kind::text;
    /// Environment fallback used when argv does not set the option; an
    /// empty or unset variable is ignored. For a flag, any value but "0"
    /// turns it on.
    std::string env{};
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    std::string choices{};  ///< text rows: "a|b|c" lists the accepted values
    std::string help;
};

class OptionParser {
public:
    /// Register an option before parse(). Throws OptionError on a duplicate.
    void add(option_row row);
    void add_option(const std::string& long_name, const std::string& default_value,
                    const std::string& help);
    void add_flag(const std::string& long_name, const std::string& help);

    /// Parses argv, resolves every row (argv -> env -> default) and checks
    /// each value. Throws OptionError on unknown options, missing values or
    /// a value outside its row's kind/range/choices.
    /// Returns false if --help was requested (usage already printed to out).
    bool parse(int argc, const char* const* argv, std::ostream& out);

    [[nodiscard]] std::string get_string(const std::string& name) const;
    [[nodiscard]] std::int64_t get_int(const std::string& name) const;
    [[nodiscard]] double get_double(const std::string& name) const;
    [[nodiscard]] bool get_flag(const std::string& name) const;

    /// Positional arguments left over after option parsing.
    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }

    /// The registered rows, in registration order.
    [[nodiscard]] std::vector<option_row> rows() const;

    void print_usage(std::ostream& out) const;

private:
    struct Option {
        option_row row;
        std::string value;
        std::string origin;  ///< "--name" or "$ENV": where `value` came from
    };
    Option* find(const std::string& name);
    const Option* find(const std::string& name) const;

    std::vector<Option> options_;
    std::vector<std::string> positional_;
};

/// Registers the options every Altis binary shares (--size, --device,
/// --passes, --verbose, --quiet).
void add_standard_options(OptionParser& parser);

}  // namespace altis
