// Trace export settings and teardown shared by every harness binary
// (altis_run, the fig*/table* bench regenerators). The settings come from
// the shared flag table (trace/harness.hpp):
//
//   --trace <file>   write a Chrome trace-event JSON (Perfetto-loadable);
//                    defaults to $ALTIS_TRACE when the env var is set
//   --profile        print the per-kernel aggregate profile table after the
//                    run; with --trace, also writes <file>.profile.json
#pragma once

#include <iosfwd>
#include <string>

#include "trace/session.hpp"

namespace altis::metrics {
class session;
}

namespace altis::trace {

struct options {
    std::string trace_path;  ///< empty: no trace file
    bool profile = false;

    [[nodiscard]] bool enabled() const { return !trace_path.empty() || profile; }
};

/// Close any still-open regions at `end_ns`, write the trace file and/or the
/// profile per `opt`. When `metrics` names a stopped metrics session, its
/// sampled series are merged into the trace file as Perfetto counter tracks.
/// Returns false (after a message on `err`) when a file could not be written.
bool finish_session(session& s, const options& opt, double end_ns,
                    std::ostream& out, std::ostream& err,
                    const altis::metrics::session* metrics = nullptr);

}  // namespace altis::trace
