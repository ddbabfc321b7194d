#include "power/power.h"

#include <algorithm>
#include <deque>

#include "common/contracts.h"

namespace rlccd {

namespace {

// Switching power coefficient: mW per (fF x toggle-rate) at nominal VDD and
// the design clock frequency baked in.
constexpr double kSwitchingCoeff = 0.0010;

// How a gate kind combines its input toggle rates into an output rate.
double combine_toggle(CellKind kind, const std::vector<double>& ins) {
  if (ins.empty()) return 0.0;
  double avg = 0.0, mx = 0.0;
  for (double t : ins) {
    avg += t;
    mx = std::max(mx, t);
  }
  avg /= static_cast<double>(ins.size());
  switch (kind) {
    case CellKind::Buf:
    case CellKind::Inv:
      return ins[0];
    case CellKind::Xor2:
      return std::min(1.0, 1.1 * avg);  // XOR toggles more than its inputs
    case CellKind::Nand2:
    case CellKind::Nor2:
    case CellKind::And2:
    case CellKind::Or2:
      return 0.75 * avg;  // logic masking attenuates activity
    case CellKind::Aoi21:
      return 0.7 * avg;
    case CellKind::Mux2:
      return 0.8 * mx;
    default:
      return avg;
  }
}

}  // namespace

SwitchingActivity propagate_activity(const Netlist& netlist,
                                     const ActivityConfig& config,
                                     const std::vector<double>& pi_toggle) {
  SwitchingActivity act;
  act.net_toggle.assign(netlist.num_nets(), 0.0);

  // Seed primary inputs.
  std::vector<CellId> pis = netlist.primary_inputs();
  if (!pi_toggle.empty()) {
    RLCCD_EXPECTS(pi_toggle.size() == pis.size());
  }
  auto set_output_toggle = [&](CellId cell, double value) {
    const Cell& c = netlist.cell(cell);
    if (!c.output.valid()) return;
    NetId net = netlist.pin(c.output).net;
    if (net.valid()) act.net_toggle[net.index()] = std::clamp(value, 0.0, 1.0);
  };
  for (std::size_t i = 0; i < pis.size(); ++i) {
    double t = pi_toggle.empty() ? config.default_pi_toggle : pi_toggle[i];
    set_output_toggle(pis[i], t);
  }

  // Build a combinational topological order (same scheme as the STA).
  std::vector<std::uint32_t> indeg(netlist.num_cells(), 0);
  std::vector<char> is_comb(netlist.num_cells(), 0);
  for (const Cell& c : netlist.cells()) {
    const LibCell& lc = netlist.library().cell(c.lib);
    if (lc.is_port() || lc.is_sequential()) continue;
    is_comb[c.id.index()] = 1;
    for (PinId in : c.inputs) {
      const Pin& p = netlist.pin(in);
      if (!p.net.valid()) continue;
      const Net& net = netlist.net(p.net);
      if (!net.driver.valid()) continue;
      const LibCell& dlc = netlist.lib_cell(netlist.pin(net.driver).cell);
      if (!dlc.is_port() && !dlc.is_sequential()) ++indeg[c.id.index()];
    }
  }
  std::vector<CellId> topo;
  std::deque<CellId> ready;
  for (const Cell& c : netlist.cells()) {
    if (is_comb[c.id.index()] && indeg[c.id.index()] == 0)
      ready.push_back(c.id);
  }
  while (!ready.empty()) {
    CellId id = ready.front();
    ready.pop_front();
    topo.push_back(id);
    const Cell& c = netlist.cell(id);
    if (!c.output.valid()) continue;
    const Pin& out = netlist.pin(c.output);
    if (!out.net.valid()) continue;
    for (PinId sink : netlist.net(out.net).sinks) {
      CellId consumer = netlist.pin(sink).cell;
      if (!is_comb[consumer.index()]) continue;
      if (--indeg[consumer.index()] == 0) ready.push_back(consumer);
    }
  }

  // Fixed-point sweeps: comb propagation, then flop Q from D, repeated so
  // activity settles across sequential boundaries.
  std::vector<double> ins;
  for (int sweep = 0; sweep < config.sweeps; ++sweep) {
    for (CellId id : topo) {
      const Cell& c = netlist.cell(id);
      const LibCell& lc = netlist.library().cell(c.lib);
      ins.clear();
      for (PinId in : c.inputs) {
        ins.push_back(act.toggle(netlist.pin(in).net));
      }
      set_output_toggle(id, combine_toggle(lc.kind, ins));
    }
    for (const Cell& c : netlist.cells()) {
      if (!netlist.is_sequential(c.id)) continue;
      double d_toggle = act.toggle(netlist.pin(c.inputs[0]).net);
      set_output_toggle(c.id,
                        config.flop_damping * d_toggle + config.flop_floor);
    }
  }
  return act;
}

CellPower compute_cell_power(const Netlist& netlist,
                             const SwitchingActivity& activity, CellId cell) {
  const Cell& c = netlist.cell(cell);
  const LibCell& lc = netlist.library().cell(c.lib);
  CellPower p;
  p.leakage = lc.leakage;
  double out_toggle = 0.0;
  if (c.output.valid()) {
    NetId net = netlist.pin(c.output).net;
    out_toggle = activity.toggle(net);
    if (net.valid()) {
      p.net_switching =
          kSwitchingCoeff * netlist.net_load_cap(net) * out_toggle;
    }
  }
  p.internal = lc.internal_energy * out_toggle;
  return p;
}

PowerReport compute_power(const Netlist& netlist,
                          const SwitchingActivity& activity) {
  PowerReport report;
  for (const Cell& c : netlist.cells()) {
    if (netlist.is_port(c.id)) continue;
    CellPower p = compute_cell_power(netlist, activity, c.id);
    report.leakage += p.leakage;
    report.internal += p.internal;
    report.switching += p.net_switching;
  }
  return report;
}

}  // namespace rlccd
