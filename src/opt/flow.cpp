#include "opt/flow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "common/log.h"
#include "common/trace.h"

namespace rlccd {

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Emits one per-step ProgressEvent (phase "flow") when an observer is set.
void emit_step(const FlowConfig& config, std::string_view step, int index,
               double seconds, std::span<const ProgressMetric> metrics) {
  if (config.observer == nullptr) return;
  ProgressEvent event;
  event.phase = "flow";
  event.step = step;
  event.index = index;
  event.seconds = seconds;
  event.metrics = metrics;
  config.observer->on_event(event);
}

void emit_summary(const FlowConfig& config, std::string_view step,
                  double seconds, const TimingSummary& s) {
  const ProgressMetric metrics[] = {
      {"tns", s.tns},
      {"wns", s.wns},
      {"nve", static_cast<double>(s.nve)},
  };
  emit_step(config, step, -1, seconds, metrics);
}

// The flow body; the wrapper owns the TelemetryScope and the root span.
void run_flow_steps(Netlist& netlist, const FlowInput& input,
                    const FlowConfig& config, FlowResult& result) {
  const auto cells = static_cast<double>(netlist.num_real_cells());
  Sta sta(&netlist, input.sta_config, input.clock_period);

  // 7. Final state — also the landing pad for cancelled runs, so a stuck or
  // deadline-expired flow still reports a consistent timing summary for
  // whatever optimization it completed.
  auto finalize = [&]() {
    RLCCD_SPAN("final_sta");
    const double t0 = now_sec();
    sta.update();
    result.final_summary = sta.summary();
    result.final_clock = sta.clock();
    result.sta_stats = sta.stats();
    {
      const std::vector<double> slacks = sta.endpoint_slacks(input.prioritized);
      for (std::size_t i = 0; i < result.prioritized_outcomes.size(); ++i) {
        result.prioritized_outcomes[i].final_slack = slacks[i];
      }
    }
    SwitchingActivity act =
        propagate_activity(netlist, ActivityConfig{}, input.pi_toggles);
    result.power_final = compute_power(netlist, act);
    emit_summary(config, "final", now_sec() - t0, result.final_summary);
  };

  // Watchdog poll, called only at pass boundaries (never mid-pass, so the
  // netlist is always in a consistent state when we bail out).
  auto cancelled = [&](const char* boundary) {
    if (config.cancel == nullptr || !config.cancel->expired()) return false;
    result.cancelled = true;
    static MetricsCounter& counter =
        MetricsRegistry::global().counter("flow.cancelled");
    counter.increment();
    RLCCD_TRACE_INSTANT("flow.cancelled");
    RLCCD_LOG_WARN("flow cancelled at %s boundary", boundary);
    emit_step(config, "cancelled", -1, 0.0, {});
    return true;
  };

  // 1. Begin state.
  {
    RLCCD_SPAN("begin_sta");
    const double t0 = now_sec();
    sta.update();
    result.begin = sta.summary();
    const std::vector<double> slacks = sta.endpoint_slacks(input.prioritized);
    result.prioritized_outcomes.reserve(input.prioritized.size());
    for (std::size_t i = 0; i < input.prioritized.size(); ++i) {
      result.prioritized_outcomes.push_back(
          {input.prioritized[i], slacks[i], slacks[i]});
    }
    emit_summary(config, "begin", now_sec() - t0, result.begin);
  }
  if (cancelled("begin_sta")) return finalize();

  // 2. Pre-CCD coarse sizing.
  {
    RLCCD_SPAN("pre_ccd_sizing");
    const double t0 = now_sec();
    SizingConfig pre;
    pre.max_upsize_moves = config.pre_ccd_sizing_moves;
    SizingResult r = run_sizing(sta, netlist, pre);
    result.cells_upsized += r.upsized;
    const ProgressMetric metrics[] = {
        {"upsized", static_cast<double>(r.upsized)}};
    emit_step(config, "pre_ccd_sizing", -1, now_sec() - t0, metrics);
  }
  if (cancelled("pre_ccd_sizing")) return finalize();

  // 3. Prioritization margins (the RL hook). Margins are measured against
  // the *current* slack profile, exactly Algorithm 1 line 14: worsen the
  // selected endpoints' timing to design WNS. run_sizing left the analysis
  // current, so no re-run is needed here.
  if (!input.prioritized.empty()) {
    RLCCD_SPAN("margins");
    TimingSummary pre = sta.summary();
    for (PinId ep : input.prioritized) {
      if (!sta.is_endpoint(ep)) continue;
      double slack = sta.endpoint_slack(ep);
      if (slack >= 1e29) continue;
      switch (config.margin_mode) {
        case MarginMode::OverFixToWns: {
          double margin = slack - pre.wns;  // >= 0 for any slack above WNS
          if (margin > 0.0) sta.set_margin(ep, margin);
          break;
        }
        case MarginMode::UnderFixRelax: {
          // Loosen the endpoint so the skew engine sees it as met and
          // leaves it entirely to the data-path passes.
          if (slack < 0.0) sta.set_margin(ep, slack);  // negative margin
          break;
        }
      }
    }
  }

  // 4. CCD clock-path optimization: useful skew (margins active), then
  // 5. remove margins before the remaining placement optimization.
  {
    const double t0 = now_sec();
    result.skew = run_useful_skew(sta, config.skew);
    sta.clear_margins();
    sta.update();
    result.after_skew = sta.summary();
    const ProgressMetric metrics[] = {
        {"tns", result.after_skew.tns},
        {"wns", result.after_skew.wns},
        {"nve", static_cast<double>(result.after_skew.nve)},
        {"flops_adjusted", static_cast<double>(result.skew.flops_adjusted)},
        {"sweeps", static_cast<double>(result.skew.sweeps)},
    };
    emit_step(config, "useful_skew", -1, now_sec() - t0, metrics);
  }
  if (cancelled("useful_skew")) return finalize();

  // 6. Remaining placement optimization.
  SizingConfig sizing;
  sizing.max_upsize_moves =
      std::max(16, static_cast<int>(cells * config.sizing_budget_frac));
  BufferConfig buffering;
  buffering.max_buffers =
      std::max(4, static_cast<int>(cells * config.buffer_budget_frac));
  RestructureConfig restructure;
  restructure.max_swaps =
      std::max(8, static_cast<int>(cells * config.restructure_budget_frac));

  for (int round = 0; round < config.data_rounds; ++round) {
    ScopedSpan round_span("data_round_" + std::to_string(round));
    const double t0 = now_sec();
    SizingResult sr = run_sizing(sta, netlist, sizing);
    result.cells_upsized += sr.upsized;
    BufferResult br = run_buffering(sta, netlist, buffering);
    result.buffers_inserted += br.buffers_inserted;
    RestructureResult rr = run_restructure(sta, netlist, restructure);
    result.pins_swapped += rr.swaps;
    const ProgressMetric metrics[] = {
        {"upsized", static_cast<double>(sr.upsized)},
        {"buffers", static_cast<double>(br.buffers_inserted)},
        {"swaps", static_cast<double>(rr.swaps)},
    };
    emit_step(config, "data_round", round, now_sec() - t0, metrics);
    if (cancelled("data_round")) return finalize();
  }

  // CCD interleaving: a brief skew re-balance on the optimized netlist.
  {
    RLCCD_SPAN("skew_touchup");
    const double t0 = now_sec();
    UsefulSkewResult touchup = run_useful_skew(sta, config.skew_touchup);
    result.skew.flops_adjusted =
        std::max(result.skew.flops_adjusted, touchup.flops_adjusted);
    const ProgressMetric metrics[] = {
        {"flops_adjusted", static_cast<double>(touchup.flops_adjusted)}};
    emit_step(config, "skew_touchup", -1, now_sec() - t0, metrics);
  }
  if (cancelled("skew_touchup")) return finalize();

  if (config.legalize) {
    RLCCD_SPAN("legalize");
    const double t0 = now_sec();
    GlobalPlacer::legalize(netlist, input.die);
    emit_step(config, "legalize", -1, now_sec() - t0, {});
  }

  // Final sizing with power recovery.
  {
    RLCCD_SPAN("final_sizing");
    const double t0 = now_sec();
    SizingConfig fin = sizing;
    fin.max_upsize_moves = std::max(16, fin.max_upsize_moves / 2);
    if (config.enable_power_recovery) {
      fin.max_downsize_moves =
          std::max(16, static_cast<int>(cells * 0.04));
      fin.downsize_slack_margin = 0.08 * input.clock_period;
    }
    SizingResult r = run_sizing(sta, netlist, fin);
    result.cells_upsized += r.upsized;
    result.cells_downsized += r.downsized;
    const ProgressMetric metrics[] = {
        {"upsized", static_cast<double>(r.upsized)},
        {"downsized", static_cast<double>(r.downsized)},
    };
    emit_step(config, "final_sizing", -1, now_sec() - t0, metrics);
  }
  if (cancelled("final_sizing")) return finalize();

  // Hold cleanup: setup-driven sizing and legalization can shave min paths
  // below what the skew engine guarded against; pad the residual debt
  // (every production CCD flow ends with this step).
  {
    const double t0 = now_sec();
    HoldFixConfig hold;
    hold.max_buffers = std::max(16, static_cast<int>(cells * 0.02));
    // Hold violations are fatal in silicon; pay setup slack if necessary.
    hold.setup_guard = -10.0 * input.clock_period;
    HoldFixResult hr = run_hold_fix(sta, netlist, hold);
    result.hold_buffers = hr.buffers_inserted;
    const ProgressMetric metrics[] = {
        {"buffers", static_cast<double>(hr.buffers_inserted)}};
    emit_step(config, "hold_fix", -1, now_sec() - t0, metrics);
  }

  finalize();
}

}  // namespace

FlowConfig default_flow_config(std::size_t num_cells, double period) {
  FlowConfig cfg;
  cfg.skew.max_abs_skew = 0.08 * period;
  cfg.skew.max_sweeps = 25;
  cfg.skew_touchup = cfg.skew;
  cfg.skew_touchup.max_sweeps = 4;
  cfg.pre_ccd_sizing_moves =
      std::max(24, static_cast<int>(static_cast<double>(num_cells) * 0.015));
  return cfg;
}

FlowResult run_placement_flow(Netlist& netlist, const FlowInput& input,
                              const FlowConfig& config) {
  FlowResult result;
  TelemetryScope scope;
  {
    RLCCD_SPAN("flow");
    run_flow_steps(netlist, input, config, result);
  }
  result.telemetry = scope.snapshot();
  static MetricsHistogram& hist_seconds =
      MetricsRegistry::global().histogram("flow.seconds");
  hist_seconds.record(result.runtime_sec());
  RLCCD_LOG_DEBUG(
      "flow done: TNS %.3f -> %.3f (wns %.3f, nve %zu), %d upsized, %d bufs",
      result.begin.tns, result.final_summary.tns, result.final_summary.wns,
      result.final_summary.nve, result.cells_upsized,
      result.buffers_inserted);
  return result;
}

}  // namespace rlccd
