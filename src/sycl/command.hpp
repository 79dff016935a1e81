// The one command body: every path that runs a syclite command (in-order
// submit, dataflow worker, graph node) calls run_command(), and keeps only
// its own delivery step. Step order and outcome handling: DESIGN.md Sec. 4a.
#pragma once

#include <cstdint>
#include <exception>
#include <string>

#include "sycl/small_function.hpp"

namespace altis::analyze {
class recorder;
}  // namespace altis::analyze

namespace syclite {

class thread_pool;

namespace detail {

/// How a command body ended.
struct command_outcome {
    enum class kind {
        ok,
        failed,        ///< fault injected or exec threw
        cancelled,     ///< cooperative cancellation, not a fault
        pipe_blocked,  ///< pipe deadlock-timeout (dataflow watchdog)
    };
    kind status = kind::ok;
    std::exception_ptr error;  ///< null iff ok
    std::string detail;        ///< deadlock message (pipe_blocked only)
};

/// One failed command, keyed by submission order: what the graph's settled
/// nodes and the dataflow workers both report to the queue.
struct command_failure {
    std::uint64_t index = 0;
    std::string name;
    command_outcome outcome;
};

/// Runs one command through the lifecycle above. `name` keys fault rules;
/// `transfer` injects op_kind::transfer instead of launch; `actor` is bound
/// around exec; `rec`/`cg` name the accessor token retired on every exit.
/// Errors are returned, not thrown.
command_outcome run_command(const std::string& name, bool transfer,
                            std::uint64_t cg, int actor,
                            altis::analyze::recorder* rec,
                            small_function<void(thread_pool&)>& exec,
                            thread_pool& pool);

}  // namespace detail
}  // namespace syclite
