// Placement-stage optimization flow (the paper's Fig. 1).
//
// Mirrors the reference tool's recipe:
//   1. begin STA (post global placement),
//   2. pre-CCD coarse sizing,
//   3. [RL hook] apply margins that worsen the *prioritized* endpoints'
//      timing to design WNS (paper Fig. 2 / Algorithm 1 line 14),
//   4. CCD clock-path optimization: useful skew,
//   5. remove the margins,
//   6. remaining placement optimization: data-path rounds (sizing,
//      buffering, restructuring), a brief skew touch-up, legalization and a
//      final sizing pass with power recovery,
//   7. final STA + power report.
// The default tool flow is exactly the same run with an empty prioritized
// set; total optimization steps are identical (paper Sec. I).
//
// The flow mutates the given netlist; callers that need repeated rollouts
// from the same starting point (the RL trainer) run it on a copy.
//
// Observability: every step runs under an RLCCD_SPAN, and the whole flow
// under a TelemetryScope, so FlowResult::telemetry carries an exact nested
// wall-clock breakdown plus the STA work counters for this one run — even
// when many flows execute concurrently on trainer workers. Attach a
// ProgressObserver via FlowConfig::observer to stream per-step events.
#pragma once

#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/telemetry.h"
#include "opt/buffering.h"
#include "opt/hold_fix.h"
#include "opt/restructure.h"
#include "opt/sizing.h"
#include "opt/useful_skew.h"
#include "place/placer.h"
#include "power/power.h"
#include "sta/clock_schedule.h"
#include "sta/sta.h"

namespace rlccd {

// How the prioritization margins are applied (Sec. III-A: the paper found
// "over-fix" significantly better than "under-fix"; bench_ablation_overfix
// measures both).
enum class MarginMode {
  OverFixToWns,   // worsen selected endpoints to WNS (paper default)
  UnderFixRelax,  // hide selected endpoints from the skew engine
};

struct FlowConfig {
  UsefulSkewConfig skew;             // main CCD useful-skew step
  UsefulSkewConfig skew_touchup;     // brief CCD re-balance after data opt
  int pre_ccd_sizing_moves = 48;
  MarginMode margin_mode = MarginMode::OverFixToWns;
  // Streams per-step ProgressEvents (phase "flow"); fires on the thread
  // running this flow. Not owned; must outlive the run. Must be null when
  // the trainer runs with isolate_workers: the flow then executes inside a
  // forked child, where the callback would fire against the parent's
  // copy-on-write state and its effects die with the child (asserted, in
  // debug builds, by the ReinforceTrainer constructor).
  ProgressObserver* observer = nullptr;
  // Cooperative cancellation (the trainer's rollout watchdog). Polled at
  // optimization-pass boundaries; when expired, the flow skips its remaining
  // passes, runs the final STA on the partially optimized netlist, and
  // returns with FlowResult::cancelled set. Not owned; must outlive the run.
  // Must likewise be null under isolate_workers — a token armed in the
  // parent cannot observe the child's clock; the supervisor's SIGKILL
  // deadline replaces it there.
  const CancelToken* cancel = nullptr;
};

// Budgets and skew bounds scaled for a design of `num_cells` with clock
// period `period` (ns).
FlowConfig default_flow_config(std::size_t num_cells, double period);

// Non-owning view of everything the flow reads besides the mutable netlist.
// Keeps the entry point at three arguments: new inputs land here instead of
// growing a positional list. All referenced objects must outlive the call.
struct FlowInput {
  const StaConfig& sta_config;
  double clock_period;
  const Die& die;
  const std::vector<double>& pi_toggles;  // activity seed, PI order
  // Endpoints the clock path must over-fix (the RL hook); empty = the
  // native tool flow.
  std::span<const PinId> prioritized = {};
};

// Begin/final slack of one prioritized endpoint across a flow run: did
// over-fixing this endpoint actually pay off?
struct EndpointOutcome {
  PinId pin;
  double begin_slack = 0.0;
  double final_slack = 0.0;
};

struct FlowResult {
  TimingSummary begin;          // post global place, before any optimization
  TimingSummary after_skew;     // after the CCD useful-skew step (margins off)
  TimingSummary final_summary;  // end of placement optimization
  // End-of-flow power. The input netlist's power is the caller's to compute
  // (propagate_activity + compute_power), once per design, not per flow.
  PowerReport power_final;
  UsefulSkewResult skew;
  int cells_upsized = 0;
  int cells_downsized = 0;
  int buffers_inserted = 0;
  int pins_swapped = 0;
  int hold_buffers = 0;
  ClockSchedule final_clock;  // for Fig. 5 histograms
  StaStats sta_stats;         // timing-engine work counters for this flow
  // The run hit FlowConfig::cancel and stopped at a pass boundary; the
  // summaries above reflect the partially optimized netlist.
  bool cancelled = false;
  // One entry per FlowInput::prioritized endpoint, in input order (empty
  // for the native flow): begin/final slack of the over-fixed endpoints.
  std::vector<EndpointOutcome> prioritized_outcomes;
  // Per-flow capture: nested per-step spans ("flow/useful_skew", ...) and
  // the counter deltas recorded while this flow ran.
  TelemetrySnapshot telemetry;

  // Total wall-clock of this flow run (the "flow" span).
  [[nodiscard]] double runtime_sec() const {
    const SpanNode* flow = telemetry.find_span("flow");
    return flow != nullptr ? flow->total_sec : 0.0;
  }
};

FlowResult run_placement_flow(Netlist& netlist, const FlowInput& input,
                              const FlowConfig& config);

}  // namespace rlccd
