// Wire codec for the cross-process observability plane.
//
// Three layers, each reused by both child kinds (rl/isolation rollout
// workers and serve job children):
//
//   * telemetry_snapshot_fields — the one TelemetrySnapshot field list
//     (counters, gauges, histograms with buckets, the span tree), walked by
//     common/ipc.h's ByteWriter and ByteReader. The rollout result wire
//     (rl/isolation/wire.h) embeds it, and ObsDelta below carries it; there
//     is exactly one byte layout for a snapshot.
//
//   * ObsDelta — the payload of a FrameType::kTelemetry frame: a compact
//     telemetry *delta* since the child's previous ship and the trace
//     events recorded since then (a serve daemon's crash postmortems are
//     the tail of those events).
//     Children ship one periodically (the heartbeat thread) and flush a
//     final one before their result so nothing is lost on clean exit; a
//     frame that never completes (SIGKILL mid-write) is simply never
//     decoded, so a torn delta cannot corrupt the parent registry.
//
//   * TelemetryDeltaTracker — the child-side subtraction: baselines the
//     global registry at construction (right after fork, so values
//     inherited from the parent are never re-shipped) and take() returns
//     what changed since the previous take(). Counter/histogram/span deltas
//     are true differences and merge commutatively on the parent; gauges
//     ship their latest level; histogram min/max ship cumulatively (the
//     parent's min/max merge is idempotent, so re-shipping is harmless).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace rlccd {

// -- snapshot field list ------------------------------------------------------

// Walks `snap` with a ByteWriter (Snapshot = const TelemetrySnapshot) or a
// ByteReader (Snapshot = TelemetrySnapshot). Instantiated for those two.
template <class Walker, class Snapshot>
Status telemetry_snapshot_fields(Walker& w, Snapshot& snap);

// -- delta computation --------------------------------------------------------

// current minus baseline: counters/histogram contents/span trees subtract
// (entries that did not change are dropped), gauges keep their current
// value (dropped only when unchanged), histogram min/max come from
// `current` whenever the count moved. merge_delta() on the result restores
// exactly `current`'s increments on top of whatever the target holds.
[[nodiscard]] TelemetrySnapshot snapshot_delta(const TelemetrySnapshot& current,
                                               const TelemetrySnapshot& baseline);

// Child-side delta source. Construct once after fork; each take() returns
// the delta since the previous take() and advances the baseline.
class TelemetryDeltaTracker {
 public:
  TelemetryDeltaTracker();
  explicit TelemetryDeltaTracker(TelemetrySnapshot baseline)
      : base_(std::move(baseline)) {}

  [[nodiscard]] TelemetrySnapshot take();

 private:
  TelemetrySnapshot base_;
};

// -- ObsDelta frames ----------------------------------------------------------

struct ObsDelta {
  // v2: one event list; v1 carried a second, postmortem-only list.
  static constexpr std::uint8_t kVersion = 2;

  std::uint64_t seq = 0;        // per-child, monotone; gaps mean lost frames
  std::int32_t source_pid = 0;  // the child's pid (trace rows, postmortems)
  TelemetrySnapshot telemetry;
  std::vector<CollectedTraceEvent> trace_events;

  [[nodiscard]] std::string encode() const;
  // Rejects unknown versions and truncated / overlong byte streams.
  Status decode(std::string_view bytes);
};

}  // namespace rlccd
