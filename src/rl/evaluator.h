// The one seam through which the trainer turns a selection into a reward.
//
// The REINFORCE trainer evaluates every sampled endpoint selection by
// running the full placement flow on a pristine copy of the design, from
// in-thread workers or from fork-isolated worker processes. Every backend
// builds an EvalRequest and receives an EvalOutcome, so the flow-outcome
// cache (rl/flow_cache.h) plugs in at exactly one place and a memoized
// outcome is indistinguishable from a fresh one everywhere downstream
// (including on the isolation wire, which ships the same struct through
// the same codec).
//
// Memoization key: the pristine netlist's Zobrist mutation-history hash
// (Netlist::state_hash — every rollout scratch is copy-assigned from the
// pristine design, so it starts at exactly this hash) XOR an unordered fold
// of per-selected-pin keys. The fold is order-insensitive on purpose: the
// flow applies prioritization margins per endpoint, so its outcome depends
// on the selection *set*, not the order the policy emitted it — permuted
// trajectories share one cache entry.
//
// Determinism: the placement flow is a deterministic function of (pristine
// netlist, selection set, FlowConfig), so a cache hit returns bit-identical
// values to re-evaluation. Training history with the cache enabled is
// byte-identical to a cache-disabled run (pinned by trainer_cache_test);
// only the telemetry (work skipped) differs. Cancelled evaluations are
// never cached — their partial summaries depend on watchdog timing.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/hash.h"
#include "designgen/generator.h"
#include "opt/flow.h"

namespace rlccd {

class FlowOutcomeCache;

// One evaluation ask: the selection to prioritize plus the cooperative
// watchdog token of the calling backend (null in isolated children, where
// the supervisor's SIGKILL deadline supersedes it).
struct EvalRequest {
  std::span<const PinId> selection;
  const CancelToken* cancel = nullptr;
};

// What an evaluation produced — the flow summary the reward is computed
// from, plus provenance. Cached and fresh outcomes carry the same fields
// and serialize identically on the isolation wire (rl/isolation/wire.h).
struct EvalOutcome {
  TimingSummary summary;    // final flow summary (TNS/WNS/NVE)
  double reward = 0.0;      // normalized against the default flow
  bool flow_ran = false;    // a valid outcome exists (fresh or memoized)
  bool cancelled = false;   // the watchdog fired mid-flow; summary partial
  // Provenance: the memoization key of this evaluation and whether the
  // outcome was served from the cache instead of running the flow.
  Hash128 state_hash;
  bool cache_hit = false;
};

class RolloutEvaluator {
 public:
  // `design` and `cache` are not owned and must outlive the evaluator;
  // `cache` may be null (memoization off).
  RolloutEvaluator(const Design* design, FlowConfig flow,
                   FlowOutcomeCache* cache);

  // Evaluates the request through the cache: probe, on miss run the flow
  // and insert. Thread-safe (the scratch pool and cache take their own
  // locks); concurrent evaluations of the same key may both run the flow,
  // which is benign — they produce identical values.
  [[nodiscard]] EvalOutcome evaluate(const EvalRequest& request);

  // Uncached full evaluation for callers that need the complete FlowResult
  // (the facade's final comparison flows, ablation benches).
  [[nodiscard]] FlowResult evaluate_full(std::span<const PinId> selection,
                                         const CancelToken* cancel);

  // Reward transform applied to every outcome: (tns - shift) / denom. The
  // trainer sets it once the default flow's TNS is known; rewards are
  // recomputed on cache hits with the current transform, so memoized
  // entries never carry a stale normalization.
  void set_reward_transform(double shift, double denom);

  // Memoization key for a selection set against the pristine design.
  [[nodiscard]] Hash128 state_hash(std::span<const PinId> selection) const;

 private:
  // Pops a scratch netlist from the pool (or allocates the first time) and
  // resets it to the pristine design via copy-assignment, which reuses the
  // scratch's existing heap allocations across rollouts.
  [[nodiscard]] std::unique_ptr<Netlist> acquire_scratch();
  void release_scratch(std::unique_ptr<Netlist> scratch);

  const Design* design_;
  FlowConfig flow_;
  FlowOutcomeCache* cache_;
  Hash128 base_hash_;  // pristine netlist state at construction
  double reward_shift_ = 0.0;
  double reward_denom_ = 1.0;

  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<Netlist>> scratch_pool_;
};

}  // namespace rlccd
