#include "core/json.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>

namespace altis::json {

std::ostream& operator<<(std::ostream& out, quoted q) {
    static constexpr char hex[] = "0123456789abcdef";
    const std::string_view s = q.s;
    out.put('"');
    std::size_t run = 0;  // start of the pending run of plain bytes
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.write(s.data() + run, static_cast<std::streamsize>(i - run));
        run = i + 1;
        switch (c) {
            case '"': out.write("\\\"", 2); break;
            case '\\': out.write("\\\\", 2); break;
            case '\n': out.write("\\n", 2); break;
            case '\t': out.write("\\t", 2); break;
            default: {
                const char u[] = {'\\', 'u', '0', '0', hex[c >> 4U],
                                  hex[c & 0xFU]};
                out.write(u, sizeof u);
            }
        }
    }
    out.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
    return out.put('"');
}

const value* value::find(const std::string& key) const {
    const object& o = as_object();
    const auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
}

const value& value::at(const std::string& key) const {
    if (const value* m = find(key)) return *m;
    throw error("json: missing key " + key);
}

namespace {

class reader {
public:
    explicit reader(std::string_view text) : s_(text) {}

    value document() {
        value v = parse_value();
        skip_ws();
        if (i_ != s_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw error("json: " + what + " at offset " + std::to_string(i_));
    }

    void skip_ws() {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                                  s_[i_] == '\n' || s_[i_] == '\r'))
            ++i_;
    }

    /// Consumes `c` after optional whitespace; false (nothing consumed)
    /// when the next byte is something else.
    bool eat(char c) {
        skip_ws();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    void expect(char c) {
        if (!eat(c)) fail(std::string("expected '") + c + "'");
    }

    value parse_value() {
        skip_ws();
        if (i_ >= s_.size()) fail("unexpected end");
        const char c = s_[i_];
        if (c == '{') return value{parse_object()};
        if (c == '[') return value{parse_array()};
        if (c == '"') return value{parse_string()};
        if (literal("true")) return value{true};
        if (literal("false")) return value{false};
        if (literal("null")) return value{nullptr};
        return value{parse_number()};
    }

    bool literal(std::string_view word) {
        if (s_.substr(i_, word.size()) != word) return false;
        i_ += word.size();
        return true;
    }

    object parse_object() {
        ++i_;  // '{'
        object o;
        if (eat('}')) return o;
        do {
            skip_ws();
            std::string key = parse_string();
            expect(':');
            o.insert_or_assign(std::move(key), parse_value());
        } while (eat(','));
        expect('}');
        return o;
    }

    array parse_array() {
        ++i_;  // '['
        array a;
        if (eat(']')) return a;
        do {
            a.push_back(parse_value());
        } while (eat(','));
        expect(']');
        return a;
    }

    double parse_number() {
        // JSON numbers start with '-' or a digit; from_chars alone would
        // also take "inf" and "nan".
        const char c = s_[i_];
        const char lead = c == '-' && i_ + 1 < s_.size() ? s_[i_ + 1] : c;
        if (lead < '0' || lead > '9')
            fail(std::string("unexpected '") + c + "'");
        double d = 0.0;
        const char* first = s_.data() + i_;
        const auto [ptr, ec] = std::from_chars(first, s_.data() + s_.size(), d);
        if (ec != std::errc{}) fail("bad number");
        i_ += static_cast<std::size_t>(ptr - first);
        return d;
    }

    std::string parse_string() {
        if (i_ >= s_.size() || s_[i_] != '"') fail("expected string");
        ++i_;
        std::string out;
        for (;;) {
            const std::size_t run = i_;
            while (i_ < s_.size() && s_[i_] != '"' && s_[i_] != '\\' &&
                   static_cast<unsigned char>(s_[i_]) >= 0x20)
                ++i_;
            out.append(s_.substr(run, i_ - run));
            if (i_ >= s_.size()) fail("unterminated string");
            const char c = s_[i_++];
            if (c == '"') return out;
            if (c != '\\') fail("raw control byte in string");
            if (i_ >= s_.size()) fail("bad escape");
            switch (s_[i_++]) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    // The writer escapes only bytes below 0x20; wider code
                    // points never occur in the suite's artifacts.
                    unsigned code = 0;
                    const char* first = s_.data() + i_;
                    const auto [ptr, ec] = std::from_chars(
                        first, first + std::min<std::size_t>(4, s_.size() - i_),
                        code, 16);
                    if (ec != std::errc{} || ptr != first + 4 || code >= 0x80)
                        fail("unsupported \\u escape");
                    i_ += 4;
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    std::string_view s_;
    std::size_t i_ = 0;
};

}  // namespace

value parse(std::string_view text) { return reader(text).document(); }

}  // namespace altis::json
