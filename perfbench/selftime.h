// Folds spans collected by obs::Tracer into exclusive (self) time per span
// name: a span's self time is its duration minus the part of its interval
// that its child spans cover, so the self times of a span tree add up to
// the duration of its root.
#ifndef PERFBENCH_SELFTIME_H_
#define PERFBENCH_SELFTIME_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct SpanTotals {
  int64_t count = 0;
  double self_ms = 0.0;  // summed durations minus covered child time
};

/// Spans nest by containment on the thread that recorded them. The
/// server's root `serve_request` span, recorded on its worker thread,
/// becomes a child of the benchmark's `bench_client_query` span whose
/// argument (the client-stamped request id) equals its own. A span counts
/// only inside its parent's interval, so the self times of one span tree
/// add up to its root's duration even when a cross-thread child outlives
/// its parent.
std::map<std::string, SpanTotals> FoldSelfTimes(
    const std::vector<hydra::obs::CollectedEvent>& events);

/// Checks FoldSelfTimes on hand-made span trees; prints the first
/// mismatch and returns false on failure.
bool SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTIME_H_
