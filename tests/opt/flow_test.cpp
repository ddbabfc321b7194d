#include "opt/flow.h"

#include <gtest/gtest.h>

#include "designgen/blocks.h"
#include "designgen/generator.h"

namespace rlccd {
namespace {

Design make_block(const char* name = "block11", double scale = 0.005) {
  return generate_design(to_generator_config(find_block(name), scale));
}

FlowResult run_flow(Design& d, std::span<const PinId> prioritized = {},
                    MarginMode mode = MarginMode::OverFixToWns) {
  Netlist work = *d.netlist;
  FlowConfig cfg =
      default_flow_config(work.num_real_cells(), d.clock_period);
  cfg.margin_mode = mode;
  FlowInput input{d.sta_config, d.clock_period, d.die, d.pi_toggles,
                  prioritized};
  return run_placement_flow(work, input, cfg);
}

TEST(Flow, ImprovesTimingSubstantially) {
  Design d = make_block();
  FlowResult r = run_flow(d);
  ASSERT_LT(r.begin.tns, 0.0);
  EXPECT_GT(r.final_summary.tns, 0.5 * r.begin.tns)
      << "flow must recover at least half the TNS";
  EXPECT_LE(r.final_summary.nve, r.begin.nve);
  EXPECT_GE(r.final_summary.wns, r.begin.wns);
}

TEST(Flow, StepsAreOrderedAndRecorded) {
  Design d = make_block();
  FlowResult r = run_flow(d);
  EXPECT_GT(r.cells_upsized, 0);
  EXPECT_GT(r.skew.flops_adjusted, 0);
  EXPECT_GE(r.after_skew.tns, r.begin.tns);
  EXPECT_GE(r.final_summary.tns, r.after_skew.tns - 1e-9);
  EXPECT_GT(r.runtime_sec(), 0.0);
}

TEST(Flow, DeterministicAcrossRuns) {
  Design d = make_block();
  FlowResult a = run_flow(d);
  FlowResult b = run_flow(d);
  EXPECT_DOUBLE_EQ(a.final_summary.tns, b.final_summary.tns);
  EXPECT_EQ(a.final_summary.nve, b.final_summary.nve);
  EXPECT_EQ(a.cells_upsized, b.cells_upsized);
}

TEST(Flow, MarginsAreRemovedBeforeFinalReport) {
  // Prioritizing endpoints must not leave phantom margins behind: the final
  // summary must agree with a fresh STA on the optimized netlist.
  Design d = make_block();
  Netlist work = *d.netlist;
  Sta probe(&work, d.sta_config, d.clock_period);
  probe.run();
  std::vector<PinId> vio = probe.endpoint_violations();
  ASSERT_FALSE(vio.empty());
  std::vector<PinId> sel(vio.begin(),
                         vio.begin() + std::min<std::size_t>(8, vio.size()));

  FlowConfig cfg = default_flow_config(work.num_real_cells(), d.clock_period);
  FlowInput input{d.sta_config, d.clock_period, d.die, d.pi_toggles, sel};
  FlowResult r = run_placement_flow(work, input, cfg);
  Sta fresh(&work, d.sta_config, d.clock_period);
  fresh.clock() = r.final_clock;
  fresh.run();
  EXPECT_NEAR(fresh.summary().tns, r.final_summary.tns, 1e-9);
}

TEST(Flow, PrioritizedEndpointsGetOverFixed) {
  // The margined endpoints must end the skew step with more slack than they
  // would have had in the default flow. Measured at the skew step itself,
  // replicating flow steps 1-4: the later data-path rounds are greedy enough
  // that rounding-level perturbations can wash the per-endpoint bias out of
  // the final netlist (the end-to-end margin wiring is covered by
  // MarginsAreRemovedBeforeFinalReport and UnderFixModeDiffersFromOverFix).
  //
  // Selection must target endpoints skew can actually serve: the first
  // violators on this block are primary outputs (no capture flop to
  // adjust), so only flop endpoints qualify. The skew bound is also widened
  // beyond the flow default — the worst flop endpoints saturate the 8%
  // default bound with or without margins, which would mask the bias.
  Design d = make_block("block18", 0.005);
  Netlist probe_nl = *d.netlist;
  Sta probe(&probe_nl, d.sta_config, d.clock_period);
  probe.run();
  const Library& lib = probe_nl.library();
  std::vector<PinId> sel;
  for (PinId ep : probe.endpoint_violations()) {
    const Cell& c = probe_nl.cell(probe_nl.pin(ep).cell);
    if (lib.cell(c.lib).kind == CellKind::Dff) sel.push_back(ep);
    if (sel.size() == 4) break;
  }
  ASSERT_EQ(sel.size(), 4u);

  FlowConfig cfg =
      default_flow_config(d.netlist->num_real_cells(), d.clock_period);
  UsefulSkewConfig skew = cfg.skew;
  skew.max_abs_skew = 0.3 * d.clock_period;
  auto slack_after_skew = [&](std::span<const PinId> prio) {
    Netlist work = *d.netlist;
    Sta sta(&work, d.sta_config, d.clock_period);
    sta.run();
    SizingConfig pre;
    pre.max_upsize_moves = cfg.pre_ccd_sizing_moves;
    run_sizing(sta, work, pre);
    TimingSummary s = sta.summary();
    for (PinId ep : prio) {
      double margin = sta.endpoint_slack(ep) - s.wns;
      if (margin > 0.0) sta.set_margin(ep, margin);
    }
    run_useful_skew(sta, skew);
    sta.clear_margins();
    sta.update();
    double sum = 0.0;
    for (PinId ep : sel) sum += sta.endpoint_slack(ep);
    return sum;
  };
  EXPECT_GT(slack_after_skew(sel), slack_after_skew({}));
}

TEST(Flow, PowerStaysApproximatelyNeutral) {
  Design d = make_block();
  const double begin = compute_power(*d.netlist, d.activity).total();
  FlowResult def = run_flow(d);
  // Optimization may spend some power, but not a blow-up.
  EXPECT_LT(def.power_final.total(), 1.5 * begin);
  EXPECT_GT(def.power_final.total(), 0.5 * begin);
}

TEST(Flow, UnderFixModeDiffersFromOverFix) {
  Design d = make_block("block18", 0.005);
  Netlist probe_nl = *d.netlist;
  Sta probe(&probe_nl, d.sta_config, d.clock_period);
  probe.run();
  std::vector<PinId> vio = probe.endpoint_violations();
  ASSERT_GE(vio.size(), 6u);
  std::vector<PinId> sel(vio.begin(), vio.begin() + 6);

  FlowResult over = run_flow(d, sel, MarginMode::OverFixToWns);
  FlowResult under = run_flow(d, sel, MarginMode::UnderFixRelax);
  EXPECT_NE(over.final_summary.tns, under.final_summary.tns);
}

TEST(Flow, EmptyAndNonEmptySelectionsShareStepCount) {
  // Fig. 1: both flows run exactly the same optimization steps; only the
  // margins differ. Proxy check: same budgets produce comparable move
  // counts (within a small band).
  Design d = make_block();
  Netlist probe_nl = *d.netlist;
  Sta probe(&probe_nl, d.sta_config, d.clock_period);
  probe.run();
  std::vector<PinId> vio = probe.endpoint_violations();
  std::vector<PinId> sel(vio.begin(),
                         vio.begin() + std::min<std::size_t>(6, vio.size()));
  FlowResult def = run_flow(d);
  FlowResult rl = run_flow(d, sel);
  EXPECT_NEAR(static_cast<double>(rl.cells_upsized),
              static_cast<double>(def.cells_upsized),
              0.5 * static_cast<double>(def.cells_upsized) + 8.0);
}

TEST(Flow, PreCancelledTokenStopsAtFirstBoundaryButStillFinalizes) {
  Design d = make_block();
  Netlist work = *d.netlist;
  FlowConfig cfg = default_flow_config(work.num_real_cells(), d.clock_period);
  CancelToken token;
  token.cancel();
  cfg.cancel = &token;
  MetricsCounter& ctr = MetricsRegistry::global().counter("flow.cancelled");
  const std::uint64_t before = ctr.value();
  FlowInput input{d.sta_config, d.clock_period, d.die, d.pi_toggles};
  FlowResult r = run_placement_flow(work, input, cfg);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(ctr.value() - before, 1u);
  // The flow bailed before any optimization pass ran...
  EXPECT_EQ(r.cells_upsized, 0);
  EXPECT_EQ(r.buffers_inserted, 0);
  // ...but still produced a consistent final report.
  EXPECT_LT(r.begin.tns, 0.0);
  EXPECT_DOUBLE_EQ(r.final_summary.tns, r.begin.tns);
}

TEST(Flow, NullAndUnexpiredTokensChangeNothing) {
  Design d = make_block();
  FlowResult plain = run_flow(d);
  Netlist work = *d.netlist;
  FlowConfig cfg = default_flow_config(work.num_real_cells(), d.clock_period);
  CancelToken token(3600.0);  // far-future deadline never expires mid-test
  cfg.cancel = &token;
  FlowInput input{d.sta_config, d.clock_period, d.die, d.pi_toggles};
  FlowResult watched = run_placement_flow(work, input, cfg);
  EXPECT_FALSE(watched.cancelled);
  EXPECT_DOUBLE_EQ(watched.final_summary.tns, plain.final_summary.tns);
  EXPECT_EQ(watched.cells_upsized, plain.cells_upsized);
}

}  // namespace
}  // namespace rlccd
