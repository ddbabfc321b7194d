// Property tests: STA invariants over randomly generated designs of varying
// size, technology and seed (parameterized sweep).
#include <gtest/gtest.h>

#include "designgen/generator.h"
#include "sta/sta.h"

namespace rlccd {
namespace {

struct Params {
  std::size_t cells;
  TechNode tech;
  std::uint64_t seed;
};

class StaPropertyTest : public ::testing::TestWithParam<Params> {
 protected:
  static GeneratorConfig config_for(const Params& p) {
    GeneratorConfig cfg;
    cfg.name = "prop";
    cfg.target_cells = p.cells;
    cfg.tech = p.tech;
    cfg.seed = p.seed;
    return cfg;
  }
};

TEST_P(StaPropertyTest, ArrivalsRespectArcEquations) {
  Design d = generate_design(config_for(GetParam()));
  Sta sta = d.make_sta();
  sta.run();
  const Netlist& nl = *d.netlist;

  for (const Cell& c : nl.cells()) {
    const LibCell& lc = nl.library().cell(c.lib);
    if (lc.is_port() || lc.is_sequential()) continue;
    const PinTiming& out = sta.timing(c.output);
    if (!out.reachable) continue;
    // arrival(out) must equal the max over reachable inputs of
    // arrival(in) + arc delay — recomputed here independently.
    const Pin& out_pin = nl.pin(c.output);
    double load =
        out_pin.net.valid() ? nl.net_load_cap(out_pin.net) : 0.0;
    double expect_max = -kUntimed, expect_min = kUntimed;
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      const PinTiming& in = sta.timing(c.inputs[i]);
      if (!in.reachable) continue;
      double delay = lc.arc_delay(static_cast<int>(i), load, in.slew);
      expect_max = std::max(expect_max, in.arrival_max + delay);
      expect_min = std::min(expect_min, in.arrival_min + delay);
    }
    ASSERT_NEAR(out.arrival_max, expect_max, 1e-9);
    ASSERT_NEAR(out.arrival_min, expect_min, 1e-9);
    ASSERT_LE(out.arrival_min, out.arrival_max + 1e-12);
  }
}

TEST_P(StaPropertyTest, SummaryIsConsistentWithEndpointSlacks) {
  Design d = generate_design(config_for(GetParam()));
  Sta sta = d.make_sta();
  sta.run();
  TimingSummary s = sta.summary();

  double tns = 0.0, wns = 0.0;
  std::size_t nve = 0;
  for (PinId ep : sta.endpoints()) {
    double sl = sta.endpoint_slack(ep);
    if (sl >= kUntimed) continue;
    if (sl < 0.0) {
      tns += sl;
      wns = std::min(wns, sl);
      ++nve;
    }
  }
  EXPECT_NEAR(s.tns, tns, 1e-9);
  EXPECT_NEAR(s.wns, wns, 1e-9);
  EXPECT_EQ(s.nve, nve);
  EXPECT_EQ(sta.endpoint_violations().size(), nve);
}

TEST_P(StaPropertyTest, RequiredTimesNeverOptimistic) {
  // Slack at any internal pin can never be better (larger) than the worst
  // endpoint slack reachable from it would allow; specifically every pin on
  // a violating path must itself show negative slack.
  Design d = generate_design(config_for(GetParam()));
  Sta sta = d.make_sta();
  sta.run();
  const Netlist& nl = *d.netlist;
  for (PinId ep : sta.endpoint_violations()) {
    const Pin& p = nl.pin(ep);
    const Net& net = nl.net(p.net);
    ASSERT_TRUE(net.driver.valid());
    // The driver of a violating endpoint's net sees slack <= endpoint slack
    // + wire margin (required propagates backwards through the arc).
    double drv_slack = sta.slack(net.driver);
    EXPECT_LE(drv_slack, sta.endpoint_slack(ep) + 1e-9);
  }
}

TEST_P(StaPropertyTest, GlobalSkewShiftLeavesFlopToFlopSlackInvariant) {
  // Adding the same delta to every flop must leave reg-to-reg slacks
  // unchanged (only PI/PO-relative paths shift).
  Design d = generate_design(config_for(GetParam()));
  Sta sta = d.make_sta();
  sta.run();
  const Netlist& nl = *d.netlist;

  std::vector<std::pair<PinId, double>> before;
  for (PinId ep : sta.endpoints()) {
    const Pin& p = nl.pin(ep);
    if (!nl.lib_cell(p.cell).is_sequential()) continue;
    before.push_back({ep, sta.endpoint_slack(ep)});
  }

  for (CellId f : nl.sequential_cells()) sta.clock().set_adjustment(f, 0.05);
  sta.run();
  for (auto& [ep, slack] : before) {
    double now = sta.endpoint_slack(ep);
    // Reg-to-reg paths: launch +0.05 and capture +0.05 cancel. PI-to-reg
    // paths gain +0.05. Either way slack must not get worse.
    EXPECT_GE(now, slack - 1e-9);
    EXPECT_LE(now, slack + 0.05 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaPropertyTest,
    ::testing::Values(Params{400, TechNode::N12, 3},
                      Params{800, TechNode::N7, 7},
                      Params{800, TechNode::N5, 11},
                      Params{1500, TechNode::N7, 23},
                      Params{2500, TechNode::N12, 31}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "cells" + std::to_string(info.param.cells) + "_" +
             tech_node_name(info.param.tech) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace rlccd
