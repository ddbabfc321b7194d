#include "sta/sta.h"

#include <gtest/gtest.h>

#include "helpers/test_circuits.h"

namespace rlccd {
namespace {

using testing::Pipeline;
using testing::SelfLoop;
using testing::TestCircuit;

constexpr double kEps = 1e-9;

TEST(Sta, EndpointsAreFlopDPinsAndPrimaryOutputs) {
  Pipeline p;
  Sta sta(p.c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  ASSERT_EQ(sta.endpoints().size(), 3u);  // FF1.D, FF2.D, PO
  EXPECT_TRUE(sta.is_endpoint(p.c.nl->cell(p.ff1).inputs[0]));
  EXPECT_TRUE(sta.is_endpoint(p.c.nl->cell(p.ff2).inputs[0]));
  EXPECT_TRUE(sta.is_endpoint(p.c.nl->cell(p.po).inputs[0]));
  EXPECT_FALSE(sta.is_endpoint(p.c.nl->cell(p.ff1).output));
}

TEST(Sta, ArrivalMatchesManualArcComputation) {
  // FF1 -Q-> BUF -> FF2.D with everything co-located: arrival at FF2.D is
  // clk2q arc + buffer arc, each computable from the library.
  Pipeline p(/*n_front=*/0, /*n_mid=*/1, /*n_back=*/0);
  const Netlist& nl = *p.c.nl;
  Sta sta(p.c.nl.get(), StaConfig{}, 1.0);
  sta.run();

  CellId buf = p.mid_bufs[0];
  const LibCell& ff_lc = nl.lib_cell(p.ff1);
  const LibCell& buf_lc = nl.lib_cell(buf);

  double q_load = nl.net_load_cap(nl.pin(nl.cell(p.ff1).output).net);
  double q_arr = ff_lc.arc_delay(1, q_load, kClockSlew);
  double q_slew = ff_lc.output_slew(q_load);

  double buf_load = nl.net_load_cap(nl.pin(nl.cell(buf).output).net);
  double expected =
      q_arr + buf_lc.arc_delay(0, buf_load, q_slew);  // zero wire delay

  EXPECT_NEAR(sta.timing(nl.cell(p.ff2).inputs[0]).arrival_max, expected,
              1e-6);
}

TEST(Sta, SetupSlackIsRequiredMinusArrival) {
  Pipeline p;
  const Netlist& nl = *p.c.nl;
  Sta sta(p.c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  PinId d = nl.cell(p.ff2).inputs[0];
  const PinTiming& t = sta.timing(d);
  const LibCell& lc = nl.lib_cell(p.ff2);
  EXPECT_NEAR(t.required, 1.0 - lc.setup_time, kEps);
  EXPECT_NEAR(sta.endpoint_slack(d), t.required - t.arrival_max, kEps);
}

TEST(Sta, CaptureSkewShiftsEndpointSlackOneToOne) {
  Pipeline p;
  const Netlist& nl = *p.c.nl;
  Sta sta(p.c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  PinId d = nl.cell(p.ff2).inputs[0];
  double base = sta.endpoint_slack(d);

  sta.clock().set_adjustment(p.ff2, 0.07);
  sta.run();
  EXPECT_NEAR(sta.endpoint_slack(d), base + 0.07, 1e-9);
}

TEST(Sta, LaunchSkewShiftsDownstreamArrivalOneToOne) {
  Pipeline p;
  const Netlist& nl = *p.c.nl;
  Sta sta(p.c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  PinId d = nl.cell(p.ff2).inputs[0];
  double base_arr = sta.timing(d).arrival_max;

  sta.clock().set_adjustment(p.ff1, 0.05);
  sta.run();
  EXPECT_NEAR(sta.timing(d).arrival_max, base_arr + 0.05, 1e-9);
  // FF1's own endpoint gains slack from its capture moving later.
  EXPECT_NEAR(sta.endpoint_slack(nl.cell(p.ff1).inputs[0]),
              sta.clock().adjustment(p.ff1) +
                  [&] {
                    Sta ref(p.c.nl.get(), StaConfig{}, 1.0);
                    ref.run();
                    return ref.endpoint_slack(nl.cell(p.ff1).inputs[0]);
                  }(),
              1e-9);
}

TEST(Sta, SelfLoopSlackIsSkewInvariant) {
  SelfLoop loop(5);
  Sta sta(loop.c.nl.get(), StaConfig{}, 0.5);
  sta.run();
  PinId d = loop.c.nl->cell(loop.ff).inputs[0];
  double base = sta.endpoint_slack(d);

  for (double delta : {-0.1, 0.05, 0.2}) {
    sta.clock().set_adjustment(loop.ff, delta);
    sta.run();
    EXPECT_NEAR(sta.endpoint_slack(d), base, 1e-9)
        << "self-loop slack must not depend on the flop's own skew";
  }
}

TEST(Sta, MarginTightensEndpointSlackExactly) {
  Pipeline p;
  const Netlist& nl = *p.c.nl;
  Sta sta(p.c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  PinId d = nl.cell(p.ff2).inputs[0];
  double base = sta.endpoint_slack(d);

  sta.set_margin(d, 0.125);
  sta.run();
  EXPECT_NEAR(sta.endpoint_slack(d), base - 0.125, kEps);

  sta.clear_margins();
  sta.run();
  EXPECT_NEAR(sta.endpoint_slack(d), base, kEps);
}

TEST(Sta, HoldSlackRespondsToCaptureSkew) {
  Pipeline p;
  const Netlist& nl = *p.c.nl;
  Sta sta(p.c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  PinId d = nl.cell(p.ff2).inputs[0];
  double base = sta.endpoint_hold_slack(d);
  EXPECT_GT(base, 0.0);  // co-located chain meets hold comfortably

  // Delaying capture eats hold slack one-to-one.
  sta.clock().set_adjustment(p.ff2, 0.04);
  sta.run();
  EXPECT_NEAR(sta.endpoint_hold_slack(d), base - 0.04, 1e-9);
}

TEST(Sta, SummaryAggregatesNegativeEndpoints) {
  Pipeline p(/*n_front=*/0, /*n_mid=*/8, /*n_back=*/0);
  // Pick a period below the mid-chain delay so FF2.D violates.
  Sta sta(p.c.nl.get(), StaConfig{}, 0.12);
  sta.run();
  TimingSummary s = sta.summary();
  EXPECT_EQ(s.num_endpoints, 3u);
  EXPECT_GT(s.nve, 0u);
  EXPECT_LT(s.wns, 0.0);
  EXPECT_LE(s.tns, s.wns);
  double manual_tns = 0.0;
  double manual_wns = 0.0;
  for (PinId ep : sta.endpoints()) {
    double sl = sta.endpoint_slack(ep);
    if (sl < 0.0) {
      manual_tns += sl;
      manual_wns = std::min(manual_wns, sl);
    }
  }
  EXPECT_NEAR(s.tns, manual_tns, kEps);
  EXPECT_NEAR(s.wns, manual_wns, kEps);
}

TEST(Sta, WireDelayIncreasesWithDistance) {
  TestCircuit c;
  CellId ff1 = c.add(CellKind::Dff, 0, 0.0, 0.0);
  CellId ff2 = c.add(CellKind::Dff, 0, 200.0, 0.0);
  c.link(ff1, {{ff2, 0}});
  c.nl->update_wire_parasitics();
  Sta sta(c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  double far_arrival = sta.timing(c.nl->cell(ff2).inputs[0]).arrival_max;

  TestCircuit c2;
  CellId g1 = c2.add(CellKind::Dff, 0, 0.0, 0.0);
  CellId g2 = c2.add(CellKind::Dff, 0, 1.0, 0.0);
  c2.link(g1, {{g2, 0}});
  c2.nl->update_wire_parasitics();
  Sta sta2(c2.nl.get(), StaConfig{}, 1.0);
  sta2.run();
  double near_arrival = sta2.timing(c2.nl->cell(g2).inputs[0]).arrival_max;

  EXPECT_GT(far_arrival, near_arrival);
}

TEST(Sta, RebuildsTopologyAfterCellInsertion) {
  Pipeline p;
  Netlist& nl = *p.c.nl;
  Sta sta(p.c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  PinId d = nl.cell(p.ff2).inputs[0];
  double base_arr = sta.timing(d).arrival_max;

  // Splice a buffer in front of FF2.D.
  CellId buf = nl.add_cell(nl.library().pick(CellKind::Buf, 0), "splice");
  NetId n = nl.add_net("splice_n");
  nl.set_driver(n, buf);
  NetId old_net = nl.pin(d).net;
  nl.move_sink(d, n);
  nl.add_sink(old_net, buf, 0);
  nl.update_wire_parasitics();

  sta.run();  // must notice the topology change
  EXPECT_GT(sta.timing(d).arrival_max, base_arr);
}

TEST(Sta, UnconnectedEndpointReportsNoViolation) {
  TestCircuit c;
  c.add(CellKind::Dff);  // D floating
  Sta sta(c.nl.get(), StaConfig{}, 1.0);
  sta.run();
  TimingSummary s = sta.summary();
  EXPECT_EQ(s.nve, 0u);
  EXPECT_EQ(s.tns, 0.0);
}

}  // namespace
}  // namespace rlccd
