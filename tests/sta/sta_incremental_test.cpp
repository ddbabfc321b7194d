// Randomized equivalence: after an arbitrary sequence of journaled netlist
// mutations (resizes, buffer insertions, skew edits, margin changes, cell
// moves), an incremental Sta::update() must be bit-identical to a
// from-scratch Sta::run(): recomputed pins see identical operands, so the
// comparisons use operator== on doubles, not a tolerance.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "designgen/generator.h"
#include "netlist/library.h"
#include "sta/sta.h"

namespace rlccd {
namespace {

class StaIncrementalTest : public ::testing::TestWithParam<std::uint64_t> {};

// Inserts a buffer splitting off half the sinks of `net`, mirroring the
// buffering pass's splice (new cell, new net, moved sinks).
void insert_buffer(Netlist& nl, NetId net_id, Rng& rng) {
  const Net& net = nl.net(net_id);
  if (!net.driver.valid() || net.sinks.size() < 2) return;
  const Cell& drv = nl.cell(nl.pin(net.driver).cell);
  LibCellId buf_lib = nl.library().pick(CellKind::Buf, 1);
  CellId buf = nl.add_cell(buf_lib, "tbuf" + std::to_string(nl.num_cells()));
  nl.set_position(buf, drv.x + rng.uniform(-5.0, 5.0),
                  drv.y + rng.uniform(-5.0, 5.0));
  NetId new_net = nl.add_net("tbufn" + std::to_string(nl.num_nets()));
  nl.set_driver(new_net, buf);
  nl.add_sink(net_id, buf, 0);
  // Move every other original sink behind the buffer.
  std::vector<PinId> sinks(net.sinks.begin(), net.sinks.end());
  for (std::size_t i = 0; i < sinks.size(); i += 2) {
    if (sinks[i] == nl.cell(buf).inputs[0]) continue;
    nl.move_sink(sinks[i], new_net);
  }
  nl.update_wire_parasitics();
}

TEST_P(StaIncrementalTest, UpdateMatchesFullRunUnderRandomMutations) {
  GeneratorConfig cfg;
  cfg.name = "inc";
  cfg.target_cells = 600;
  cfg.seed = GetParam();
  cfg.clock_tightness = 0.8;
  Design d = generate_design(cfg);
  Netlist& nl = *d.netlist;
  const Library& lib = nl.library();

  Sta inc = d.make_sta();   // exercised via update()
  inc.update();

  Rng rng(GetParam() * 7919 + 13);
  std::vector<CellId> real_cells;
  for (const Cell& c : nl.cells()) {
    if (!nl.is_port(c.id)) real_cells.push_back(c.id);
  }
  std::vector<CellId> flops = nl.sequential_cells();

  for (int step = 0; step < 60; ++step) {
    // One random mutation batch (1-4 edits before the next update).
    int edits = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{4}));
    for (int e = 0; e < edits; ++e) {
      switch (rng.uniform_int(std::uint64_t{6})) {
        case 0: {  // resize up or down
          CellId c = real_cells[rng.uniform_int(real_cells.size())];
          LibCellId next = (rng.uniform() < 0.5) ? lib.upsize(nl.cell(c).lib)
                                                 : lib.downsize(nl.cell(c).lib);
          if (next.valid()) nl.resize_cell(c, next);
          break;
        }
        case 1: {  // buffer insertion
          NetId net(static_cast<std::uint32_t>(
              rng.uniform_int(std::uint64_t{nl.num_nets()})));
          insert_buffer(nl, net, rng);
          break;
        }
        case 2: {  // useful-skew edit
          if (flops.empty()) break;
          CellId f = flops[rng.uniform_int(flops.size())];
          inc.clock().set_adjustment(f, rng.uniform(-0.05, 0.05));
          break;
        }
        case 3: {  // margin set / clear
          auto eps = inc.endpoints();
          if (eps.empty()) break;
          PinId ep = eps[rng.uniform_int(eps.size())];
          if (rng.uniform() < 0.3) {
            inc.set_margin(ep, 0.0);
          } else {
            inc.set_margin(ep, rng.uniform(-0.1, 0.1));
          }
          break;
        }
        case 4: {  // cell move
          CellId c = real_cells[rng.uniform_int(real_cells.size())];
          const Cell& cell = nl.cell(c);
          nl.set_position(c, cell.x + rng.uniform(-20.0, 20.0),
                          cell.y + rng.uniform(-20.0, 20.0));
          nl.update_wire_parasitics();
          break;
        }
        case 5: {  // occasionally clear all margins
          if (rng.uniform() < 0.2) {
            inc.clear_margins();
          }
          break;
        }
      }
    }

    inc.update();

    // Reference: a fresh engine analyzing the same netlist from scratch,
    // with the same clock schedule and margins replayed.
    Sta ref(&nl, d.sta_config, d.clock_period);
    for (CellId f : flops) {
      ref.clock().set_adjustment(f, inc.clock().adjustment(f));
    }
    for (PinId ep : inc.margins().active()) {
      ref.set_margin(ep, inc.margins().get(ep));
    }
    ref.run();

    ASSERT_EQ(inc.endpoints().size(), ref.endpoints().size());
    // Every pin's required time and reachability, and the forward fields of
    // every reachable pin (an unreachable pin's arrival is never read: its
    // slack is +inf).
    for (std::uint32_t i = 0; i < nl.num_pins(); ++i) {
      const PinTiming ti = inc.timing(PinId(i));
      const PinTiming tr = ref.timing(PinId(i));
      ASSERT_EQ(ti.reachable, tr.reachable)
          << "pin " << i << " reachable diverged at step " << step;
      ASSERT_EQ(ti.required, tr.required)
          << "pin " << i << " required diverged at step " << step;
      if (!tr.reachable) continue;
      ASSERT_EQ(ti.arrival_max, tr.arrival_max)
          << "pin " << i << " arrival_max diverged at step " << step;
      ASSERT_EQ(ti.arrival_min, tr.arrival_min)
          << "pin " << i << " arrival_min diverged at step " << step;
      ASSERT_EQ(ti.slew, tr.slew)
          << "pin " << i << " slew diverged at step " << step;
    }
    TimingSummary a = inc.summary();
    TimingSummary b = ref.summary();
    ASSERT_EQ(a.tns, b.tns);
    ASSERT_EQ(a.wns, b.wns);
    ASSERT_EQ(a.nve, b.nve);
  }

  // The incremental engine must actually have taken the incremental path.
  EXPECT_GT(inc.stats().incremental_updates, 0u);
}

// update() re-levels structural edits without rebuilding the level order;
// a later run() with nothing pending must still walk the current order.
TEST(StaIncremental, FullRunAfterStructuralUpdateMatchesFreshEngine) {
  GeneratorConfig cfg;
  cfg.name = "inc_order";
  cfg.target_cells = 600;
  cfg.seed = 4;
  Design d = generate_design(cfg);
  Netlist& nl = *d.netlist;
  Sta inc = d.make_sta();
  inc.run();
  Rng rng(11);
  for (int i = 0; i < 12; ++i) {
    NetId net(static_cast<std::uint32_t>(
        rng.uniform_int(std::uint64_t{nl.num_nets()})));
    insert_buffer(nl, net, rng);
    inc.update();
  }
  EXPECT_GT(inc.stats().relevel_batches, 0u);
  inc.run();

  Sta ref(&nl, d.sta_config, d.clock_period);
  ref.run();
  ASSERT_EQ(inc.endpoints().size(), ref.endpoints().size());
  for (std::uint32_t i = 0; i < nl.num_pins(); ++i) {
    const PinTiming ti = inc.timing(PinId(i));
    const PinTiming tr = ref.timing(PinId(i));
    ASSERT_EQ(ti.reachable, tr.reachable) << "pin " << i;
    ASSERT_EQ(ti.required, tr.required) << "pin " << i;
    if (!tr.reachable) continue;
    ASSERT_EQ(ti.arrival_max, tr.arrival_max) << "pin " << i;
    ASSERT_EQ(ti.arrival_min, tr.arrival_min) << "pin " << i;
    ASSERT_EQ(ti.slew, tr.slew) << "pin " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaIncrementalTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace rlccd
