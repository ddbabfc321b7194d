// Randomized equivalence for the netlist's derived per-net state: the load
// cap the mutators keep current, and the wire caps update_wire_parasitics()
// refreshes for changed nets only. After every mutation each net's load must
// equal, bit for bit, a fold of its wire cap and sink pin caps in sink order.
// After every refresh the wire caps, the journal entries the refresh made and
// state_hash() must equal those of a sweep over every net (the reference
// kept below), so the incremental STA and the flow cache see the same inputs.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "designgen/generator.h"
#include "netlist/netlist.h"

namespace rlccd {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Wire cap plus each sink's pin cap, added left to right.
double fold_load(const Netlist& nl, const Net& n) {
  double cap = n.wire_cap;
  for (PinId sink : n.sinks) {
    const Pin& p = nl.pin(sink);
    const LibCell& lc = nl.lib_cell(p.cell);
    cap += (lc.is_sequential() && p.index == 1) ? lc.clock_pin_cap
                                                : lc.input_cap;
  }
  return cap;
}

void expect_loads_folded(const Netlist& nl, int step) {
  for (const Net& n : nl.nets()) {
    ASSERT_TRUE(same_bits(nl.net_load_cap(n.id), fold_load(nl, n)))
        << "net " << n.id.index() << " load diverged at step " << step;
  }
}

// The refresh as a sweep over every net in id order: recompute each wire cap
// from placement and journal the driver of every net whose cap changed.
// `wire` holds the reference's own wire caps across calls.
void reference_sweep(const Netlist& nl, std::vector<double>& wire,
                     MutationJournal& journal) {
  const double per_um = nl.library().tech().wire_cap_per_um;
  wire.resize(nl.num_nets(), 0.0);
  for (const Net& n : nl.nets()) {
    double cap = per_um * nl.net_hpwl(n.id);
    if (cap == wire[n.id.index()]) continue;
    wire[n.id.index()] = cap;
    if (n.driver.valid()) {
      journal.record(MutationKind::Electrical, nl.pin(n.driver).cell);
    }
  }
}

class DerivedStateTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DerivedStateTest, CachedLoadsAndRefreshMatchFullRecompute) {
  GeneratorConfig cfg;
  cfg.name = "derived";
  cfg.target_cells = 300;
  cfg.seed = GetParam();
  Design d = generate_design(cfg);
  Netlist& nl = *d.netlist;
  const Library& lib = nl.library();
  const double per_um = lib.tech().wire_cap_per_um;

  // The generated design has been refreshed: every wire cap is current.
  std::vector<double> ref_wire;
  for (const Net& n : nl.nets()) {
    ASSERT_TRUE(same_bits(n.wire_cap, per_um * nl.net_hpwl(n.id)));
    ref_wire.push_back(n.wire_cap);
  }
  expect_loads_folded(nl, -1);

  // The net with the most sinks is the clock; appends to it take the
  // one-add path, and flop resizes must leave it alone.
  NetId clock_net = nl.nets()[0].id;
  for (const Net& n : nl.nets()) {
    if (n.sinks.size() > nl.net(clock_net).sinks.size()) clock_net = n.id;
  }

  Rng rng(GetParam() * 104729 + 7);
  std::vector<NetId> driverless;
  const CellKind kinds[] = {CellKind::Buf, CellKind::Inv, CellKind::Nand2,
                            CellKind::Mux2, CellKind::Dff};
  auto random_cell = [&] {
    return CellId(static_cast<std::uint32_t>(
        rng.uniform_int(std::uint64_t{nl.num_cells()})));
  };
  auto random_net = [&] {
    return NetId(static_cast<std::uint32_t>(
        rng.uniform_int(std::uint64_t{nl.num_nets()})));
  };
  // A free input pin of a random cell, as (cell, index); invalid cell if
  // the draw found none.
  auto free_input = [&](CellId& cell, int& index) {
    for (int tries = 0; tries < 32; ++tries) {
      CellId c = random_cell();
      const Cell& cc = nl.cell(c);
      for (std::size_t i = 0; i < cc.inputs.size(); ++i) {
        if (nl.pin(cc.inputs[i]).net.valid()) continue;
        cell = c;
        index = static_cast<int>(i);
        return;
      }
    }
    cell = CellId{};
  };
  // A random cell whose output drives no net; invalid if the draw found
  // none.
  auto free_output = [&] {
    for (int tries = 0; tries < 32; ++tries) {
      CellId c = random_cell();
      const Cell& cc = nl.cell(c);
      if (cc.output.valid() && !nl.pin(cc.output).net.valid()) return c;
    }
    return CellId{};
  };
  auto refresh = [&](int step) {
    MutationJournal ref_journal = nl.journal();
    reference_sweep(nl, ref_wire, ref_journal);
    const std::uint64_t before = nl.journal().seq();
    nl.update_wire_parasitics();
    for (const Net& n : nl.nets()) {
      ASSERT_TRUE(same_bits(n.wire_cap, ref_wire[n.id.index()]))
          << "net " << n.id.index() << " wire cap diverged at step " << step;
    }
    std::span<const Mutation> got = nl.journal().since(before);
    std::span<const Mutation> want = ref_journal.since(before);
    ASSERT_EQ(got.size(), want.size()) << "at step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].kind, want[i].kind) << "entry " << i;
      ASSERT_EQ(got[i].cell, want[i].cell) << "entry " << i;
    }
    ASSERT_EQ(nl.journal().seq(), ref_journal.seq());
    ASSERT_EQ(nl.state_hash(), ref_journal.state_hash()) << "at step " << step;
  };

  for (int step = 0; step < 600; ++step) {
    switch (rng.uniform_int(std::uint64_t{10})) {
      case 0: {  // new cell, placed or not
        CellKind kind = kinds[rng.uniform_int(std::size(kinds))];
        const auto& sizes = lib.sizes(kind);
        CellId c = nl.add_cell(sizes[rng.uniform_int(sizes.size())], "p");
        if (rng.uniform() < 0.7) {
          nl.set_position(c, rng.uniform(0.0, d.die.width),
                          rng.uniform(0.0, d.die.height));
        }
        // A new flop clocks off the clock net: one more add to its load.
        if (kind == CellKind::Dff) nl.add_sink(clock_net, c, 1);
        break;
      }
      case 1: {  // new net, or a driver for a driverless one
        // The driverless net may have sinks already; its bounding box then
        // grows by the driver's position.
        if (rng.uniform() < 0.4) {
          driverless.push_back(nl.add_net("pn"));
          break;
        }
        CellId c = free_output();
        if (driverless.empty() || !c.valid()) break;
        nl.set_driver(driverless.back(), c);
        driverless.pop_back();
        break;
      }
      case 2: {  // connect a free input pin
        CellId c;
        int index = 0;
        free_input(c, index);
        if (!c.valid()) break;
        const double u = rng.uniform();
        NetId n = u < 0.2                         ? clock_net
                  : u < 0.5 && !driverless.empty() ? driverless.back()
                                                   : random_net();
        nl.add_sink(n, c, index);
        break;
      }
      case 3: {  // re-target a connected sink pin (possibly to its own net)
        PinId p(static_cast<std::uint32_t>(
            rng.uniform_int(std::uint64_t{nl.num_pins()})));
        if (nl.pin(p).dir != PinDir::Input || !nl.pin(p).net.valid()) break;
        nl.move_sink(p, rng.uniform() < 0.1 ? nl.pin(p).net : random_net());
        break;
      }
      case 4: {  // swap two connected inputs of one cell
        CellId c = random_cell();
        const Cell& cc = nl.cell(c);
        if (cc.inputs.size() < 2) break;
        int a = static_cast<int>(rng.uniform_int(cc.inputs.size()));
        int b = static_cast<int>(rng.uniform_int(cc.inputs.size()));
        if (!nl.pin(cc.inputs[static_cast<std::size_t>(a)]).net.valid() ||
            !nl.pin(cc.inputs[static_cast<std::size_t>(b)]).net.valid()) {
          break;
        }
        nl.swap_input_nets(c, a, b);
        break;
      }
      case 5:
      case 6: {  // resize to any size of the kind, flops included
        CellId c = random_cell();
        if (nl.is_port(c)) break;
        const auto& sizes = lib.sizes(nl.lib_cell(c).kind);
        nl.resize_cell(c, sizes[rng.uniform_int(sizes.size())]);
        break;
      }
      case 7:
      case 8: {  // move a cell (sometimes onto its own spot: a no-op)
        CellId c = random_cell();
        const Cell& cc = nl.cell(c);
        if (rng.uniform() < 0.15) {
          nl.set_position(c, cc.x, cc.y);
        } else {
          nl.set_position(c, cc.x + rng.uniform(-15.0, 15.0),
                          cc.y + rng.uniform(-15.0, 15.0));
        }
        break;
      }
      case 9:
        refresh(step);
        break;
    }
    expect_loads_folded(nl, step);
    if (HasFatalFailure()) return;
  }
  refresh(600);
  expect_loads_folded(nl, 600);
  nl.validate();

  // A copy carries the pending refresh with it.
  CellId c = random_cell();
  nl.set_position(c, nl.cell(c).x + 3.0, nl.cell(c).y);
  Netlist copy = nl;
  MutationJournal ref_journal = copy.journal();
  std::vector<double> copy_wire = ref_wire;
  reference_sweep(copy, copy_wire, ref_journal);
  copy.update_wire_parasitics();
  EXPECT_EQ(copy.state_hash(), ref_journal.state_hash());
  expect_loads_folded(copy, 601);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivedStateTest,
                         ::testing::Values(1u, 4u, 9u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace rlccd
