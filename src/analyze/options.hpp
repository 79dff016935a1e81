// Sanitizer settings and teardown shared by every harness binary; the
// settings come from the shared flag table (trace/harness.hpp):
//
//   --sanitize <off|warn|error>   capture the command graph and lint it at
//                                 exit; `error` turns any warning-or-worse
//                                 finding into exit code 1 and refuses to
//                                 launch dataflow groups with pipe errors.
//                                 Defaults to $ALTIS_SANITIZE when set.
//   --sanitize-json <file>        also write the findings as JSON.
//   --sanitize-sarif <file>       also write the findings as SARIF v2.1.0
//                                 (GitHub code scanning).
//   --sanitize-baseline <file>    demote findings fingerprinted in the
//                                 baseline to notes; flag stale entries.
//
// Requesting an output file (--sanitize-json / --sanitize-sarif) implies
// `--sanitize warn`, so a clean tree still produces a valid empty document
// instead of no file at all.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "analyze/recorder.hpp"

namespace altis::analyze {

struct options {
    level lv = level::off;
    std::string json_path;
    std::string sarif_path;
    std::string baseline_path;

    [[nodiscard]] bool enabled() const { return lv != level::off; }
};

/// Callback the harness uses to mirror findings onto another sink (e.g.
/// error-flagged trace spans) without analyze depending on the trace layer.
using span_sink = std::function<void(const finding&)>;

/// Runs the passes over `rec`, applies the baseline (when given), renders
/// the findings to `out`, writes the JSON/SARIF files when requested, and
/// hands each finding to `sink` (the harness uses it to emit error-flagged
/// trace spans) when provided. Returns the process exit code contribution:
/// 1 when level is `error` and any warning-or-worse finding exists
/// (baselined findings are notes and never gate), 2 when an output file
/// could not be written (both requested files are attempted, each failure
/// is one line on `err`) or the baseline could not be read, else 0.
[[nodiscard]] int finish(const recorder& rec, const options& opt,
                         std::ostream& out, std::ostream& err,
                         const span_sink& sink = {});

}  // namespace altis::analyze
