#include "resilience/supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "core/result_database.hpp"
#include "fault/inject.hpp"
#include "metrics/instruments.hpp"

namespace altis::resilience {

double retry_policy::backoff_ms(int retry) const {
    return backoff_base_ms * std::pow(backoff_multiplier, retry);
}

supervisor::supervisor(const options& opts, const std::string& sweep,
                       mark_sink marks)
    : opts_(opts), marks_(std::move(marks)), breaker_(opts.breaker) {
    if (!opts_.resume_path.empty()) {
        if (auto jf = read_journal(opts_.resume_path, sweep)) {
            for (auto& e : jf->entries) {
                // Interrupted configs are journaled as nothing; a stray
                // "cancelled" line (older files) must re-run too.
                if (e.oc.st == outcome::status::cancelled) continue;
                replay_.emplace(e.config, std::move(e));
            }
        }
    }
    if (!opts_.journal_path.empty()) {
        // An explicit --journal wins over appending to the resume file:
        // the fresh journal re-records everything (including replays), so
        // it is a compacted, complete checkpoint of this run.
        writer_.emplace(opts_.journal_path, sweep, /*append=*/false);
    } else if (!opts_.resume_path.empty()) {
        writer_.emplace(opts_.resume_path, sweep, /*append=*/true);
        writer_appends_ = true;
    }
}

supervisor::result supervisor::run(const std::string& config,
                                   const std::string& breaker_key,
                                   const attempt_fn& attempt,
                                   const settle_fn& settle) {
    // A label the sweep encounters more than once replays its journaled
    // entries in order, one per encounter.
    if (const auto it = replay_.lower_bound(config);
        it != replay_.end() && it->first == config) {
        result r{std::move(it->second), /*replayed=*/true};
        replay_.erase(it);
        // Drive the breaker through the same admit/report sequence the
        // original run took: the sweep re-encounters configs in the same
        // deterministic order, so breaker state (and every later
        // quarantine decision) evolves identically to the uninterrupted
        // run -- which is what makes the final report byte-identical. The
        // fault plan's counters and streams jump to where the original run
        // left them after this config, for the same reason.
        (void)breaker_.admit(breaker_key);
        if (r.entry.oc.st != outcome::status::quarantined)
            breaker_.report(breaker_key, hard_failure(r.entry.oc.st));
        if (fault::plan* p = fault::active(); p && !r.entry.plan.empty())
            p->restore(r.entry.plan);
        if (metrics::collecting())
            metrics::instruments::resilience_replays().add();
        if (writer_ && !writer_appends_) writer_->append(r.entry);
        return r;
    }

    result r;
    journal_entry& e = r.entry;
    e.config = config;
    if (!breaker_.admit(breaker_key)) {
        e.oc.st = outcome::status::quarantined;
        e.oc.attempts = 0;
        e.oc.error = "circuit open: " +
                     std::to_string(breaker_.policy().threshold) +
                     " consecutive hard failures of " + breaker_key +
                     " (probe after " +
                     std::to_string(breaker_.policy().cooldown) +
                     " more configs)";
        if (metrics::collecting())
            metrics::instruments::resilience_quarantined().add();
    } else {
        {
            deadline_scope deadline(opts_.deadline_ms);
            attempt_loop(e, attempt);
        }
        if (settle) settle(e);
        breaker_.report(breaker_key, hard_failure(e.oc.st));
    }
    if (const fault::plan* p = fault::active()) e.plan = p->state();
    if (writer_ && e.oc.st != outcome::status::cancelled) writer_->append(e);
    using st = outcome::status;
    if (e.oc.st == st::deadline || e.oc.st == st::cancelled ||
        e.oc.st == st::quarantined)
        emit(e.oc.st == st::quarantined ? mark::quarantined : mark::cancelled,
             std::string(e.oc.label()) + ": " + config +
                 (e.oc.error.empty() ? "" : ": " + e.oc.error));
    return r;
}

void supervisor::attempt_loop(journal_entry& e, const attempt_fn& attempt) {
    outcome& oc = e.oc;
    const int max_attempts = std::max(opts_.retry.max_attempts, 1);
    for (int n = 1;; ++n) {
        oc.attempts = n;
        try {
            attempt(e);
            return;
        } catch (const fault::injected_fault& f) {
            oc.error = f.what();
            if (!f.retryable() || n >= max_attempts) {
                if (metrics::collecting())
                    metrics::instruments::fault_failures().add();
                if (opts_.fail_fast) throw;
                oc.st = outcome::status::failed;
                break;
            }
            const double backoff = opts_.retry.backoff_ms(n - 1);
            oc.backoff_ms += backoff;
            if (metrics::collecting()) {
                metrics::instruments::fault_retries().add();
                metrics::instruments::fault_backoff_ns().add(
                    static_cast<std::uint64_t>(backoff * 1e6));
            }
            emit(mark::retried, "retry " + std::to_string(n) + ": " +
                                    e.config + " (backoff " +
                                    std::to_string(backoff) + " ms): " +
                                    oc.error);
        } catch (const cancelled_error& c) {
            // Cancellation is not a fault of the configuration: the
            // deadline (or a signal) pulled the plug. Never retried -- the
            // token stays cancelled for the rest of this configuration's
            // scope, so another attempt would die at its first checkpoint.
            const bool deadline = c.reason() == cancel_reason::deadline;
            if (metrics::collecting() && deadline)
                metrics::instruments::resilience_deadline_misses().add();
            if (opts_.fail_fast) throw;
            oc.st = deadline ? outcome::status::deadline
                             : outcome::status::cancelled;
            oc.error = c.what();
            break;
        } catch (const std::exception& x) {
            // Anything that is not an injected fault is a real defect of the
            // configuration -- retrying cannot help.
            if (metrics::collecting())
                metrics::instruments::fault_failures().add();
            if (opts_.fail_fast) throw;
            oc.st = outcome::status::failed;
            oc.error = x.what();
            break;
        }
    }
    // A failed configuration reports no result, whatever an attempt left.
    e.value.reset();
    e.results.clear();
}

journal_entry supervisor::skipped(const std::string& config,
                                  std::string reason) {
    journal_entry e;
    e.config = config;
    e.oc.st = outcome::status::skipped;
    e.oc.error = std::move(reason);
    return e;
}

void supervisor::record(ResultDatabase& db, const journal_entry& e) const {
    const outcome& oc = e.oc;
    const bool log_all = fault::active() != nullptr || opts_.enabled();
    if (!log_all && (oc.succeeded() || oc.st == outcome::status::skipped) &&
        !oc.retried())
        return;
    db.add_outcome({e.config, oc.label(), oc.attempts, oc.error});
}

void supervisor::emit(mark m, std::string name) const {
    if (marks_) marks_(m, std::move(name));
}

}  // namespace altis::resilience
