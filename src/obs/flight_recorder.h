// Serve flight recorder: keeps the top-N slowest requests with their
// per-phase wall-time breakdown (decode → admission wait → cache lookup →
// execute → encode/write) so an operator can ask a live daemon "what were
// the worst queries and where did their time go" via STATS — no tracer
// required (phases are timed with plain WallTimers on the request path).
#ifndef HYDRA_OBS_FLIGHT_RECORDER_H_
#define HYDRA_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hydra::obs {

/// One timed phase of a request. `name` must be a static-lifetime string
/// (the request path uses literals).
struct FlightPhase {
  const char* name = nullptr;
  double seconds = 0.0;
};

/// One completed request: the client-propagated request id, a compact
/// human label of the query (k, mode, budgets), the end-to-end latency,
/// whether it was a cache hit and whether the connection's reader answered
/// it inline (no pool hop, so its queue_wait is 0), and the phase
/// breakdown in request order.
struct FlightRecord {
  uint64_t request_id = 0;
  std::string label;
  double total_seconds = 0.0;
  bool cache_hit = false;
  bool answered_inline = false;
  std::vector<FlightPhase> phases;
};

/// Thread-safe top-N-by-latency log. Bounded: Record keeps the `keep`
/// slowest requests seen so far and discards the rest, so memory is O(N)
/// regardless of traffic.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t keep = 8);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(FlightRecord record);

  /// The retained records, slowest first.
  std::vector<FlightRecord> Snapshot() const;

  size_t keep() const { return keep_; }

 private:
  const size_t keep_;
  mutable std::mutex mutex_;
  std::vector<FlightRecord> records_;  // kept sorted, slowest first
};

}  // namespace hydra::obs

#endif  // HYDRA_OBS_FLIGHT_RECORDER_H_
