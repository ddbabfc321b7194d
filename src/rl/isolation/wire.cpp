#include "rl/isolation/wire.h"

#include "common/ipc.h"
#include "common/telemetry_wire.h"

namespace rlccd {

namespace {

template <class W, class Outcome>
Status eval_outcome_fields(W& w, Outcome& outcome) {
  RLCCD_TRY(w.pod(outcome.summary.wns, "outcome wns"));
  RLCCD_TRY(w.pod(outcome.summary.tns, "outcome tns"));
  RLCCD_TRY(w.as(kU64, outcome.summary.nve, "outcome nve"));
  RLCCD_TRY(w.as(kU64, outcome.summary.num_endpoints, "outcome endpoints"));
  RLCCD_TRY(w.pod(outcome.summary.worst_hold_slack, "outcome hold slack"));
  RLCCD_TRY(w.pod(outcome.reward, "outcome reward"));
  RLCCD_TRY(w.as(kU8, outcome.flow_ran, "outcome flow_ran"));
  RLCCD_TRY(w.as(kU8, outcome.cancelled, "outcome cancelled"));
  RLCCD_TRY(w.pod(outcome.state_hash.lo, "state hash lo"));
  RLCCD_TRY(w.pod(outcome.state_hash.hi, "state hash hi"));
  return w.as(kU8, outcome.cache_hit, "outcome cache_hit");
}

template <class W, class Audit>
Status audit_fields(W& w, Audit& audit) {
  RLCCD_TRY(w.as(kU8, audit.poisoned, "audit poisoned"));
  // Both per-step lists hold a u32 endpoint and a double each.
  const auto top_k = [&](auto& top) {
    RLCCD_TRY(w.pod(top.first, "top-k endpoint"));
    return w.pod(top.second, "top-k probability");
  };
  const auto mask_event = [&](auto& ev) {
    RLCCD_TRY(w.pod(ev.endpoint, "masked endpoint"));
    return w.pod(ev.overlap, "masked overlap");
  };
  // A step is at least chosen (4), three doubles and both counts (1 + 4).
  return w.list(kU32, audit.steps, 33, "audit step count", [&](auto& step) {
    RLCCD_TRY(w.pod(step.chosen, "audit chosen"));
    RLCCD_TRY(w.pod(step.slack, "audit slack"));
    RLCCD_TRY(w.pod(step.log_prob, "audit log_prob"));
    RLCCD_TRY(w.pod(step.entropy, "audit entropy"));
    RLCCD_TRY(w.list(kU8, step.top_probs, 12, "audit top-k count", top_k));
    return w.list(kU32, step.masked, 12, "audit mask count", mask_event);
  });
}

template <class W, class Wire>
Status rollout_wire_fields(W& w, Wire& wire) {
  std::uint8_t version = RolloutWire::kVersion;
  RLCCD_TRY(w.pod(version, "wire version"));
  if (version != RolloutWire::kVersion) {
    return Status::corrupt("rollout wire version %u, expected %u", version,
                           RolloutWire::kVersion);
  }
  RLCCD_TRY(eval_outcome_fields(w, wire.outcome));
  RLCCD_TRY(w.pod(wire.steps, "steps"));
  RLCCD_TRY(w.as(kU8, wire.poisoned, "poisoned"));
  RLCCD_TRY(w.list(kU32, wire.selection, 4, "selection count", [&](auto& p) {
    return w.pod(p.value, "selection pin");
  }));
  // A u64 value count at least.
  RLCCD_TRY(w.list(kU32, wire.grads, 8, "gradient tensor count",
                   [&](auto& g) { return w.floats(g, "gradient tensor"); }));
  RLCCD_TRY(audit_fields(w, wire.audit));
  RLCCD_TRY(telemetry_snapshot_fields(w, wire.telemetry));
  return w.finish();
}

}  // namespace

void encode_rollout_wire(const RolloutWire& wire, std::string& out) {
  out.clear();
  ByteWriter w(out);
  (void)rollout_wire_fields(w, wire);
}

Status decode_rollout_wire(std::string_view bytes, RolloutWire& out) {
  ByteReader r(bytes);
  return rollout_wire_fields(r, out);
}

}  // namespace rlccd
