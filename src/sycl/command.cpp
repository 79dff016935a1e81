#include "sycl/command.hpp"

#include "analyze/recorder.hpp"
#include "analyze/shadow.hpp"
#include "fault/inject.hpp"
#include "metrics/instruments.hpp"
#include "resilience/cancel.hpp"
#include "sycl/pipe.hpp"

namespace syclite::detail {

namespace {

/// RAII inc/dec of the in-flight kernel gauge; captures the metering
/// decision once so the pair always balances -- when exec throws, and even
/// if a session starts or stops mid-kernel.
struct inflight_guard {
    bool metered = altis::metrics::collecting();
    inflight_guard() {
        if (metered)
            altis::metrics::instruments::queue_inflight_kernels().add(1);
    }
    ~inflight_guard() {
        if (metered)
            altis::metrics::instruments::queue_inflight_kernels().sub(1);
    }
};

/// Retires a command group's accessor-lifetime token on every exit path
/// (success, injected fault, cancellation, app exception).
struct retire_guard {
    altis::analyze::recorder* rec;
    std::uint64_t cg;
    ~retire_guard() {
        if (rec != nullptr && cg != 0) rec->retire(cg);
    }
};

}  // namespace

command_outcome run_command(const std::string& name, bool transfer,
                            std::uint64_t cg, int actor,
                            altis::analyze::recorder* rec,
                            small_function<void(thread_pool&)>& exec,
                            thread_pool& pool) {
    namespace fault = altis::fault;
    using kind = command_outcome::kind;
    retire_guard retire{rec, cg};
    try {
        // Dispatch-time checkpoint: a deadline that expired while the
        // command sat queued cancels it before a single byte moves.
        altis::resilience::checkpoint();
        fault::maybe_inject(
            transfer ? fault::op_kind::transfer : fault::op_kind::launch, name,
            transfer ? "transfer failed" : "kernel launch failed");
        inflight_guard inflight;
        // Attribute the command's observed accesses to its shadow actor
        // (no-op when no sanitize session assigned one).
        altis::analyze::shadow::actor_scope scope(actor);
        exec(pool);
        return {};
    } catch (const pipe_deadlock& pd) {
        return {kind::pipe_blocked, std::current_exception(), pd.what()};
    } catch (const altis::resilience::cancelled_error&) {
        return {kind::cancelled, std::current_exception(), {}};
    } catch (...) {
        return {kind::failed, std::current_exception(), {}};
    }
}

}  // namespace syclite::detail
