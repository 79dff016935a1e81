// Happens-before hazard detection over a recorded command graph.
//
// Sequential kernel-after-kernel reuse of a buffer is ordered -- by program
// order on an in-order queue, by the implied edge the scheduler derives from
// the same declared ranges on an out-of-order queue -- so the hazards worth
// flagging are the ones concurrency or the host introduce:
//
//   ALS-H1  two kernels of the same dataflow group touch overlapping memory,
//           at least one writing, with no pipe connecting them (pipes are the
//           group's only synchronization channel -- Fig. 3's kernels share
//           `centers` safely *because* the pipes sequence their rounds).
//   ALS-H2  a host transfer reads or writes a range that async kernel work
//           touched with no intervening queue::wait().
//   ALS-H4  a kernel declares a USM range (handler::uses_usm) that is not
//           live: freed (use-after-free) or never allocated; also double and
//           invalid usm_free calls.
//   ALS-L5  queue::wait() with no commands since the previous wait -- the
//           redundant-synchronization smell behind the paper's Sec. 3.3
//           timing pitfalls.
#pragma once

#include "analyze/findings.hpp"
#include "analyze/graph.hpp"

namespace altis::analyze {

void lint_hazards(const command_graph& g, report& out);

}  // namespace altis::analyze
