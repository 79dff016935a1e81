// Fault-plan specification: the grammar behind `--inject=<spec>` and
// $ALTIS_FAULT. A plan is a list of rules; each rule names an operation kind
// the runtime performs (allocation, kernel launch, transfer, pipe operation,
// device acquisition), optionally a glob over operation names, and a trigger:
// deterministic ("the Nth matching operation, M times in a row") or
// probabilistic (each matching operation fails with probability P, drawn from
// a seeded XORWOW stream so the firing pattern is reproducible).
//
//   spec    := clause (';' clause)*
//   clause  := rule | 'seed=' UINT
//   rule    := kind [':' match] trigger
//   kind    := 'alloc' | 'launch' | 'transfer' | 'pipe' | 'device'
//   trigger := '@' N ['x' M]      fire on matches N .. N+M-1 (1-based, M=1)
//            | '%' P              fire each match with probability P in [0,1]
//
// Examples:
//   alloc@3                 third allocation fails
//   launch:kmeans*@2x2      2nd and 3rd launches of kernels named kmeans*
//   pipe:map@1              first operation on pipes/kernels matching "map"
//   device:agilex@1         first acquisition of the agilex device
//   transfer%0.05;seed=7    5% of transfers, reproducibly
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rng/xorwow.hpp"

namespace altis::fault {

class spec_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Operation kinds the runtime exposes as injection points.
enum class op_kind { alloc, launch, transfer, pipe, device };

[[nodiscard]] const char* to_string(op_kind k);

/// Whether a fault of this kind is transient: the resilient harness retries
/// retryable faults (allocation pressure, transfer hiccups, a device briefly
/// unavailable) and treats the rest (launch faults, pipe deadlocks) as
/// structural failures of the configuration.
[[nodiscard]] bool retryable(op_kind k);

struct rule {
    op_kind kind = op_kind::alloc;
    std::string match;          ///< glob over operation names; empty = any
    std::uint64_t nth = 1;      ///< 1-based first firing match (counting mode)
    std::uint64_t times = 1;    ///< consecutive firings starting at nth
    double probability = -1.0;  ///< >= 0: probabilistic mode (nth/times unused)

    /// Round-trips the rule back into spec syntax (for error messages).
    [[nodiscard]] std::string text() const;
};

/// One firing of a rule against a concrete operation.
struct hit {
    op_kind kind = op_kind::alloc;
    std::string op;         ///< operation name that matched
    std::string rule_text;  ///< the rule that fired, in spec syntax
};

/// A compiled fault plan with per-rule firing state. check() is thread-safe:
/// dataflow kernels probe it from concurrent worker threads. Given the same
/// spec (and seed, for probabilistic rules) and the same sequence of checked
/// operations, the firing pattern is identical run to run.
class plan {
public:
    plan() = default;
    plan(const plan& other);
    plan& operator=(const plan& other);

    /// Compiles a spec string. Throws spec_error on malformed input.
    [[nodiscard]] static plan parse(const std::string& spec);

    [[nodiscard]] bool empty() const { return rules_.empty(); }
    [[nodiscard]] std::uint64_t seed() const { return seed_; }
    [[nodiscard]] const std::vector<rule>& rules() const { return rules_; }

    /// Records one operation of `kind` named `name` against every rule and
    /// returns the first rule that fires, if any.
    [[nodiscard]] std::optional<hit> check(op_kind kind, std::string_view name);

    /// Rewinds all counters and probabilistic streams to the parsed state.
    void reset();

    /// The per-rule firing state (match counters and xorwow streams) as
    /// text, for the sweep journal: a resumed sweep restores it where the
    /// original run stood, so later operations fire identically.
    [[nodiscard]] std::string state() const;
    /// Inverse of state(). A state that does not fit this plan's rules (a
    /// journal written under another spec) is ignored.
    void restore(const std::string& state);

private:
    struct rule_state {
        std::uint64_t matches = 0;
        rng::xorwow stream{0};
    };

    std::vector<rule> rules_;
    std::uint64_t seed_ = 0;
    std::vector<rule_state> states_;
    mutable std::mutex mutex_;
};

/// Glob match with '*' wildcards (no character classes); empty pattern
/// matches everything.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view text);

}  // namespace altis::fault
