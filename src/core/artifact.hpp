// The one path every run artifact is written through: the trace and its
// profile, the metrics exposition and snapshot, the sanitizer's JSON and
// SARIF. The failure contract is the same for all of them: a file that
// cannot be opened or fully written gives one stderr line naming its path,
// and the harness turns that into exit code 2 after attempting every other
// requested artifact.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace altis {

/// Writes `path` by handing an open stream to `body`, then flushes, closes
/// and checks it. On success prints `success` (if not empty) on `out`; on
/// failure prints "<label>: cannot open <path> for writing" or "<label>:
/// failed writing <path>" on `err` and returns false.
bool write_artifact(const std::string& path, std::string_view label,
                    const std::function<void(std::ostream&)>& body,
                    std::ostream& out, std::ostream& err,
                    std::string_view success = {});

}  // namespace altis
