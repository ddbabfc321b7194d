#include "rl/evaluator.h"

#include "common/contracts.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "rl/flow_cache.h"

namespace rlccd {

namespace {
// Stream tag separating selection-pin keys from journal mutation keys.
constexpr std::uint64_t kSelectionSalt = 0x53454c4543545ull;  // "SELECT"
}  // namespace

RolloutEvaluator::RolloutEvaluator(const Design* design, FlowConfig flow,
                                   FlowOutcomeCache* cache)
    : design_(design), flow_(flow), cache_(cache) {
  RLCCD_EXPECTS(design != nullptr && design->netlist != nullptr);
  base_hash_ = design_->netlist->state_hash();
}

void RolloutEvaluator::set_reward_transform(double shift, double denom) {
  RLCCD_EXPECTS(denom != 0.0);
  reward_shift_ = shift;
  reward_denom_ = denom;
}

Hash128 RolloutEvaluator::state_hash(
    std::span<const PinId> selection) const {
  // Unordered fold: XOR of independent per-pin keys. The flow's outcome
  // depends on the selection set only, so permutations of one set must (and
  // do) collapse to one key. Selections are sets by construction — the
  // policy masks already-selected endpoints — so self-cancellation cannot
  // occur.
  Hash128 h = base_hash_;
  for (PinId pin : selection) h ^= hash128(kSelectionSalt, pin.value);
  return h;
}

std::unique_ptr<Netlist> RolloutEvaluator::acquire_scratch() {
  std::unique_ptr<Netlist> scratch;
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!scratch_pool_.empty()) {
      scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
    }
  }
  if (scratch) {
    *scratch = *design_->netlist;  // reset in place, reusing capacity
  } else {
    scratch = std::make_unique<Netlist>(*design_->netlist);
  }
  return scratch;
}

void RolloutEvaluator::release_scratch(std::unique_ptr<Netlist> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  scratch_pool_.push_back(std::move(scratch));
}

FlowResult RolloutEvaluator::evaluate_full(std::span<const PinId> selection,
                                           const CancelToken* cancel) {
  std::unique_ptr<Netlist> work = acquire_scratch();
  FlowInput input{design_->sta_config, design_->clock_period, design_->die,
                  design_->pi_toggles, selection};
  FlowConfig flow = flow_;
  flow.cancel = cancel;
  FlowResult result = run_placement_flow(*work, input, flow);
  release_scratch(std::move(work));
  return result;
}

EvalOutcome RolloutEvaluator::evaluate(const EvalRequest& request) {
  const Hash128 key = state_hash(request.selection);

  EvalOutcome outcome;
  if (cache_ != nullptr && cache_->probe(key, outcome)) {
    // A hit returns exactly what re-evaluation would have produced (the
    // flow is deterministic in the key); only the reward normalization is
    // recomputed, so a memoized outcome can never carry a stale transform.
    RLCCD_TRACE_INSTANT("train.cache_hit");
    outcome.state_hash = key;
    outcome.reward = (outcome.summary.tns - reward_shift_) / reward_denom_;
    return outcome;
  }

  FlowResult fr = evaluate_full(request.selection, request.cancel);
  outcome.summary = fr.final_summary;
  outcome.flow_ran = true;
  outcome.cancelled = fr.cancelled;
  outcome.state_hash = key;
  outcome.cache_hit = false;
  outcome.reward = (outcome.summary.tns - reward_shift_) / reward_denom_;
  // Cancelled runs stopped at a watchdog-timing-dependent pass boundary;
  // their partial summaries are not a function of the key and must never
  // be served to a later probe.
  if (cache_ != nullptr && !outcome.cancelled) {
    cache_->insert(key, outcome);
  }
  return outcome;
}

}  // namespace rlccd
