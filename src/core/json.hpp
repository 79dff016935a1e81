// The suite's one JSON codec. Every artifact that carries JSON -- the
// ResultDatabase dump, the Chrome trace and its profile, the metrics
// snapshot, sanitizer findings and SARIF, the resume journal -- writes its
// strings through json::quoted, and everything that reads JSON back (the
// journal on --resume, the round-trip tests) goes through parse.
//
// The one escaping rule: `"` -> `\"`, `\` -> `\\`, newline -> `\n`, tab ->
// `\t`, every other byte below 0x20 -> `\u00xx` (lowercase hex); all other
// bytes pass through unchanged.
//
// Number formatting is not part of the codec: each emitter keeps its own
// (golden figures and digests pin those bytes).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace altis::json {

/// `out << json::quoted(s)` writes `s` as a JSON string literal, quotes
/// included, per the escaping rule above.
struct quoted {
    std::string_view s;
};
std::ostream& operator<<(std::ostream& out, quoted q);

/// Malformed input, a missing key or a value of the wrong type.
class error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct value;
using array = std::vector<value>;
using object = std::map<std::string, value>;

struct value {
    std::variant<std::nullptr_t, bool, double, std::string, array, object> v =
        nullptr;

    [[nodiscard]] bool is_null() const {
        return std::holds_alternative<std::nullptr_t>(v);
    }
    // The accessors throw json::error when the value holds another type.
    [[nodiscard]] bool as_bool() const { return get<bool>(); }
    [[nodiscard]] double as_number() const { return get<double>(); }
    [[nodiscard]] const std::string& as_string() const {
        return get<std::string>();
    }
    [[nodiscard]] const array& as_array() const { return get<array>(); }
    [[nodiscard]] const object& as_object() const { return get<object>(); }
    [[nodiscard]] bool has(const std::string& key) const {
        return find(key) != nullptr;
    }
    /// The member `key`, or nullptr when absent (throws when not an object).
    [[nodiscard]] const value* find(const std::string& key) const;
    /// The member `key`; throws json::error when absent.
    [[nodiscard]] const value& at(const std::string& key) const;

private:
    template <class T>
    [[nodiscard]] const T& get() const {
        if (const T* p = std::get_if<T>(&v)) return *p;
        throw error("json: value has another type");
    }
};

/// Parses `text` as one JSON document (RFC 8259: objects, arrays, strings,
/// numbers, true/false/null). Throws json::error on malformed input, a raw
/// control byte inside a string, a `\u` escape beyond ASCII (the writer
/// emits none), or trailing characters. Numbers are read
/// with std::from_chars: locale-independent, and a double written in
/// shortest round-trip form reads back bit for bit.
[[nodiscard]] value parse(std::string_view text);

}  // namespace altis::json
