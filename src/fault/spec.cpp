#include "fault/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace altis::fault {
namespace {

std::string_view trim(std::string_view s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

std::uint64_t parse_uint(std::string_view s, const std::string& context) {
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc{} || ptr != s.data() + s.size())
        throw spec_error("fault spec: bad number '" + std::string(s) + "' in " +
                         context);
    return value;
}

double parse_probability(std::string_view s, const std::string& context) {
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc{} || ptr != s.data() + s.size() || value < 0.0 ||
        value > 1.0)
        throw spec_error("fault spec: probability must be in [0,1], got '" +
                         std::string(s) + "' in " + context);
    return value;
}

op_kind parse_kind(std::string_view s, const std::string& context) {
    if (s == "alloc") return op_kind::alloc;
    if (s == "launch") return op_kind::launch;
    if (s == "transfer") return op_kind::transfer;
    if (s == "pipe") return op_kind::pipe;
    if (s == "device") return op_kind::device;
    throw spec_error("fault spec: unknown kind '" + std::string(s) + "' in " +
                     context + " (expected alloc|launch|transfer|pipe|device)");
}

rule parse_rule(std::string_view clause) {
    const std::string context = std::string(clause);
    rule r;

    // Trigger first: exactly one of '@' or '%'.
    const std::size_t at = clause.find('@');
    const std::size_t pct = clause.find('%');
    if (at == std::string_view::npos && pct == std::string_view::npos)
        throw spec_error("fault spec: rule '" + context +
                         "' has no trigger (expected @N[xM] or %P)");
    if (at != std::string_view::npos && pct != std::string_view::npos)
        throw spec_error("fault spec: rule '" + context +
                         "' mixes @ and % triggers");

    std::string_view head, trigger;
    if (at != std::string_view::npos) {
        head = clause.substr(0, at);
        trigger = clause.substr(at + 1);
        const std::size_t x = trigger.find('x');
        if (x == std::string_view::npos) {
            r.nth = parse_uint(trigger, context);
        } else {
            r.nth = parse_uint(trigger.substr(0, x), context);
            r.times = parse_uint(trigger.substr(x + 1), context);
        }
        if (r.nth == 0 || r.times == 0)
            throw spec_error("fault spec: indices in '" + context +
                             "' are 1-based (@0 or x0 is meaningless)");
    } else {
        head = clause.substr(0, pct);
        trigger = clause.substr(pct + 1);
        r.probability = parse_probability(trigger, context);
    }

    const std::size_t colon = head.find(':');
    if (colon == std::string_view::npos) {
        r.kind = parse_kind(trim(head), context);
    } else {
        r.kind = parse_kind(trim(head.substr(0, colon)), context);
        r.match = std::string(trim(head.substr(colon + 1)));
    }
    return r;
}

}  // namespace

const char* to_string(op_kind k) {
    switch (k) {
        case op_kind::alloc: return "alloc";
        case op_kind::launch: return "launch";
        case op_kind::transfer: return "transfer";
        case op_kind::pipe: return "pipe";
        case op_kind::device: return "device";
    }
    return "?";
}

bool retryable(op_kind k) {
    switch (k) {
        case op_kind::alloc:
        case op_kind::transfer:
        case op_kind::device:
            return true;
        case op_kind::launch:
        case op_kind::pipe:
            return false;
    }
    return false;
}

std::string rule::text() const {
    std::string s = to_string(kind);
    if (!match.empty()) {
        s += ':';
        s += match;
    }
    if (probability >= 0.0) {
        s += '%';
        s += std::to_string(probability);
    } else {
        s += '@';
        s += std::to_string(nth);
        if (times != 1) {
            s += 'x';
            s += std::to_string(times);
        }
    }
    return s;
}

bool glob_match(std::string_view pattern, std::string_view text) {
    if (pattern.empty()) return true;
    // Iterative glob with single-star backtracking.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string_view::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == text[t] || pattern[p] == '?')) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string_view::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
}

plan::plan(const plan& other) {
    rules_ = other.rules_;
    seed_ = other.seed_;
    states_ = other.states_;
}

plan& plan::operator=(const plan& other) {
    if (this != &other) {
        std::scoped_lock lock(mutex_);
        rules_ = other.rules_;
        seed_ = other.seed_;
        states_ = other.states_;
    }
    return *this;
}

plan plan::parse(const std::string& spec) {
    plan p;
    std::string_view rest = spec;
    bool seeded = false;
    while (!rest.empty()) {
        const std::size_t semi = rest.find(';');
        std::string_view clause = trim(rest.substr(0, semi));
        rest = semi == std::string_view::npos ? std::string_view{}
                                              : rest.substr(semi + 1);
        if (clause.empty()) continue;
        if (clause.rfind("seed=", 0) == 0) {
            // A silently-overwritten seed makes "reproduce with the spec
            // from the report" lie; duplicates are a spec error.
            if (seeded)
                throw spec_error("fault spec: duplicate seed= clause '" +
                                 std::string(clause) + "'");
            p.seed_ = parse_uint(clause.substr(5), std::string(clause));
            seeded = true;
            continue;
        }
        p.rules_.push_back(parse_rule(clause));
    }
    p.reset();
    return p;
}

void plan::reset() {
    std::scoped_lock lock(mutex_);
    states_.clear();
    states_.reserve(rules_.size());
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        rule_state st;
        // Independent per-rule streams: rules fire identically regardless of
        // how other rules interleave.
        st.stream = rng::xorwow(seed_ ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
        states_.push_back(std::move(st));
    }
}

std::optional<hit> plan::check(op_kind kind, std::string_view name) {
    if (rules_.empty()) return std::nullopt;
    std::scoped_lock lock(mutex_);
    // Every matching rule observes every operation (counters advance even
    // when an earlier rule already fired), so rule states never depend on
    // the order rules appear in the spec.
    std::optional<hit> first;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const rule& r = rules_[i];
        if (r.kind != kind || !glob_match(r.match, name)) continue;
        rule_state& st = states_[i];
        bool fires = false;
        if (r.probability >= 0.0) {
            fires = st.stream.next_double() < r.probability;
        } else {
            ++st.matches;
            fires = st.matches >= r.nth && st.matches < r.nth + r.times;
        }
        if (fires && !first) first = hit{kind, std::string(name), r.text()};
    }
    return first;
}

}  // namespace altis::fault
