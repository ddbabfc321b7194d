#include "rl/isolation/wire.h"

#include "common/ipc.h"
#include "common/telemetry_wire.h"

namespace rlccd {

namespace {

void append_audit(std::string& out, const SelectionAudit& audit) {
  ipc_append_pod(out, static_cast<std::uint8_t>(audit.poisoned));
  ipc_append_pod(out, static_cast<std::uint32_t>(audit.steps.size()));
  for (const AuditStep& step : audit.steps) {
    ipc_append_pod(out, step.chosen);
    ipc_append_pod(out, step.slack);
    ipc_append_pod(out, step.log_prob);
    ipc_append_pod(out, step.entropy);
    ipc_append_pod(out, static_cast<std::uint8_t>(step.top_probs.size()));
    for (const auto& [endpoint, prob] : step.top_probs) {
      ipc_append_pod(out, endpoint);
      ipc_append_pod(out, prob);
    }
    ipc_append_pod(out, static_cast<std::uint32_t>(step.masked.size()));
    for (const AuditMaskEvent& ev : step.masked) {
      ipc_append_pod(out, ev.endpoint);
      ipc_append_pod(out, ev.overlap);
    }
  }
}

Status parse_audit(std::string_view bytes, std::size_t& offset,
                   SelectionAudit& audit) {
  std::uint8_t poisoned = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, poisoned, "audit poisoned"));
  audit.poisoned = poisoned != 0;
  // A step is at least chosen (4), three doubles and both counts (1 + 4).
  std::uint32_t n_steps = 0;
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_steps, 33, "audit step count"));
  audit.steps.resize(n_steps);
  for (AuditStep& step : audit.steps) {
    RLCCD_TRY(ipc_parse_pod(bytes, offset, step.chosen, "audit chosen"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, step.slack, "audit slack"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, step.log_prob, "audit log_prob"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, step.entropy, "audit entropy"));
    std::uint8_t n_top = 0;  // u32 endpoint + double probability each
    RLCCD_TRY(ipc_parse_count(bytes, offset, n_top, 12, "audit top-k count"));
    step.top_probs.resize(n_top);
    for (auto& [endpoint, prob] : step.top_probs) {
      RLCCD_TRY(ipc_parse_pod(bytes, offset, endpoint, "top-k endpoint"));
      RLCCD_TRY(ipc_parse_pod(bytes, offset, prob, "top-k probability"));
    }
    std::uint32_t n_masked = 0;  // u32 endpoint + double overlap each
    RLCCD_TRY(ipc_parse_count(bytes, offset, n_masked, 12, "audit mask count"));
    step.masked.resize(n_masked);
    for (AuditMaskEvent& ev : step.masked) {
      RLCCD_TRY(ipc_parse_pod(bytes, offset, ev.endpoint, "masked endpoint"));
      RLCCD_TRY(ipc_parse_pod(bytes, offset, ev.overlap, "masked overlap"));
    }
  }
  return Status();
}

// EvalOutcome codec: one field at a time, fixed width, no padding bytes on
// the wire.
void append_eval_outcome(std::string& out, const EvalOutcome& outcome) {
  ipc_append_pod(out, outcome.summary.wns);
  ipc_append_pod(out, outcome.summary.tns);
  ipc_append_pod(out, static_cast<std::uint64_t>(outcome.summary.nve));
  ipc_append_pod(out,
                 static_cast<std::uint64_t>(outcome.summary.num_endpoints));
  ipc_append_pod(out, outcome.summary.worst_hold_slack);
  ipc_append_pod(out, outcome.reward);
  ipc_append_pod(out, static_cast<std::uint8_t>(outcome.flow_ran));
  ipc_append_pod(out, static_cast<std::uint8_t>(outcome.cancelled));
  ipc_append_pod(out, outcome.state_hash.lo);
  ipc_append_pod(out, outcome.state_hash.hi);
  ipc_append_pod(out, static_cast<std::uint8_t>(outcome.cache_hit));
}

Status parse_eval_outcome(std::string_view bytes, std::size_t& offset,
                          EvalOutcome& out) {
  RLCCD_TRY(ipc_parse_pod(bytes, offset, out.summary.wns, "outcome wns"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, out.summary.tns, "outcome tns"));
  std::uint64_t nve = 0, num_endpoints = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, nve, "outcome nve"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, num_endpoints, "outcome endpoints"));
  out.summary.nve = static_cast<std::size_t>(nve);
  out.summary.num_endpoints = static_cast<std::size_t>(num_endpoints);
  RLCCD_TRY(ipc_parse_pod(bytes, offset, out.summary.worst_hold_slack,
                          "outcome hold slack"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, out.reward, "outcome reward"));
  std::uint8_t flow_ran = 0, cancelled = 0, cache_hit = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, flow_ran, "outcome flow_ran"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, cancelled, "outcome cancelled"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, out.state_hash.lo, "state hash lo"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, out.state_hash.hi, "state hash hi"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, cache_hit, "outcome cache_hit"));
  out.flow_ran = flow_ran != 0;
  out.cancelled = cancelled != 0;
  out.cache_hit = cache_hit != 0;
  return Status();
}

}  // namespace

void encode_rollout_wire(const RolloutWire& wire, std::string& out) {
  out.clear();
  ipc_append_pod(out, RolloutWire::kVersion);
  append_eval_outcome(out, wire.outcome);
  ipc_append_pod(out, wire.steps);
  ipc_append_pod(out, static_cast<std::uint8_t>(wire.poisoned));
  ipc_append_pod(out, static_cast<std::uint32_t>(wire.selection.size()));
  for (PinId pin : wire.selection) ipc_append_pod(out, pin.value);
  ipc_append_pod(out, static_cast<std::uint32_t>(wire.grads.size()));
  for (const std::vector<float>& g : wire.grads) ipc_append_float_vec(out, g);
  append_audit(out, wire.audit);
  append_telemetry_snapshot(out, wire.telemetry);
}

Status decode_rollout_wire(std::string_view bytes, RolloutWire& out) {
  std::size_t offset = 0;
  std::uint8_t version = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, version, "wire version"));
  if (version != RolloutWire::kVersion) {
    return Status::corrupt("rollout wire version %u, expected %u", version,
                           RolloutWire::kVersion);
  }
  RLCCD_TRY(parse_eval_outcome(bytes, offset, out.outcome));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, out.steps, "steps"));
  std::uint8_t poisoned = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, poisoned, "poisoned"));
  out.poisoned = poisoned != 0;

  std::uint32_t n_sel = 0;  // u32 pins
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_sel, 4, "selection count"));
  out.selection.resize(n_sel);
  for (PinId& pin : out.selection) {
    RLCCD_TRY(ipc_parse_pod(bytes, offset, pin.value, "selection pin"));
  }

  std::uint32_t n_grads = 0;  // u64 value count at least
  RLCCD_TRY(
      ipc_parse_count(bytes, offset, n_grads, 8, "gradient tensor count"));
  out.grads.resize(n_grads);
  for (std::vector<float>& g : out.grads) {
    RLCCD_TRY(ipc_parse_float_vec(bytes, offset, g, "gradient tensor"));
  }

  RLCCD_TRY(parse_audit(bytes, offset, out.audit));

  RLCCD_TRY(parse_telemetry_snapshot(bytes, offset, out.telemetry));
  if (offset != bytes.size()) {
    return Status::corrupt("rollout wire has %zu trailing bytes",
                           bytes.size() - offset);
  }
  return Status();
}

}  // namespace rlccd
