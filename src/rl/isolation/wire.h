// Serialized form of one rollout worker's result, carried over the
// supervisor pipe (rl/isolation/supervisor.h) from the forked child back to
// the trainer.
//
// The wire carries exactly what the in-thread worker hands the trainer —
// the EvalOutcome of the reward evaluation (the same struct every backend
// receives from RolloutEvaluator, so cached and fresh outcomes serialize
// identically), per-parameter gradients, the decision-provenance audit —
// plus the child's telemetry delta (counters, histograms and the span tree
// recorded while the rollout ran), which the parent merge_delta()s into the
// global registry so metrics agree with the thread backend. Encoding is
// little-endian fixed-width via the common/ipc.h codec; a leading version
// byte rejects frames from a mismatched binary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "rl/audit.h"
#include "rl/evaluator.h"

namespace rlccd {

struct RolloutWire {
  // v2: tns/reward/flow_ran/cancelled folded into an embedded EvalOutcome
  // (adds the state hash, hit provenance and the flow-cost skeleton).
  // v3: counter_deltas + spans replaced by a full TelemetrySnapshot delta
  // (adds gauges and histograms) using the shared common/telemetry_wire
  // codec — the same byte layout ObsDelta frames carry.
  // v4: the outcome's flow-cost skeleton (flow wall-clock, STA pin updates)
  // dropped with the cache replacement policy that read it.
  static constexpr std::uint8_t kVersion = 4;

  EvalOutcome outcome;
  std::int32_t steps = 0;
  bool poisoned = false;
  std::vector<PinId> selection;
  std::vector<std::vector<float>> grads;  // per parameter
  SelectionAudit audit;
  // Telemetry recorded on the child's rollout thread (a TelemetryScope
  // capture): counter/histogram deltas and the closed-span tree. The
  // numeric telemetry rides *only* here — periodic kTelemetry frames from
  // rollout children carry trace events alone, so nothing double-counts.
  TelemetrySnapshot telemetry;
};

void encode_rollout_wire(const RolloutWire& wire, std::string& out);
// Rejects unknown versions and any truncated / overlong byte stream with a
// corrupt Status.
Status decode_rollout_wire(std::string_view bytes, RolloutWire& out);

}  // namespace rlccd
