#include "opt/sizing.h"

#include <algorithm>
#include <vector>

namespace rlccd {

namespace {
// Predicted local gain (ns) an upsize must beat to be committed.
constexpr double kMinGain = 1e-5;
}

double estimate_resize_delta(const Sta& sta, const Netlist& netlist,
                             CellId cell_id, LibCellId new_lib) {
  const Cell& c = netlist.cell(cell_id);
  const LibCell& old_lc = netlist.lib_cell(cell_id);
  const LibCell& new_lc = netlist.library().cell(new_lib);

  // Own arc: intrinsic and drive-resistance change under the present load,
  // evaluated at the worst propagated input transition.
  double load = 0.0;
  if (c.output.valid()) {
    NetId out_net = netlist.pin(c.output).net;
    if (out_net.valid()) load = netlist.net_load_cap(out_net);
  }
  double worst_in_slew = 0.0;
  for (PinId in : c.inputs) {
    const PinTiming& t = sta.timing(in);
    if (t.reachable) worst_in_slew = std::max(worst_in_slew, t.slew);
  }
  double own = (new_lc.intrinsic_delay - old_lc.intrinsic_delay) +
               (new_lc.drive_res - old_lc.drive_res) * load +
               (new_lc.slew_sens - old_lc.slew_sens) * worst_in_slew;

  // Upstream: each fanin driver sees the input-capacitance change — directly
  // in its arc delay, and through a slower output transition that feeds back
  // into this cell's arc via its slew sensitivity.
  double upstream = 0.0;
  double cin_delta = new_lc.input_cap - old_lc.input_cap;
  for (PinId in : c.inputs) {
    const Pin& p = netlist.pin(in);
    if (!p.net.valid()) continue;
    const Net& net = netlist.net(p.net);
    if (!net.driver.valid()) continue;
    const LibCell& drv = netlist.lib_cell(netlist.pin(net.driver).cell);
    upstream += drv.drive_res * cin_delta +
                new_lc.slew_sens * drv.slew_res * cin_delta;
  }
  return own + upstream;
}

SizingResult run_sizing(Sta& sta, Netlist& netlist,
                        const SizingConfig& config) {
  RLCCD_SPAN("sizing");
  SizingResult result;
  sta.update();
  const Library& lib = netlist.library();

  // --- upsizing on violating paths, worst first -----------------------------
  struct Candidate {
    CellId cell;
    double slack;
  };
  std::vector<Candidate> candidates;
  for (const Cell& c : netlist.cells()) {
    if (netlist.is_port(c.id)) continue;
    double s = sta.cell_worst_slack(c.id);
    if (s < 0.0 && s > -kUntimed) candidates.push_back({c.id, s});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.slack < b.slack;
            });

  int moves = 0;
  for (const Candidate& cand : candidates) {
    if (moves >= config.max_upsize_moves) break;
    LibCellId up = lib.upsize(netlist.cell(cand.cell).lib);
    if (!up.valid()) continue;
    double delta = estimate_resize_delta(sta, netlist, cand.cell, up);
    if (delta < -kMinGain) {
      netlist.resize_cell(cand.cell, up);
      ++result.upsized;
      ++moves;
    }
  }

  // --- power recovery: downsize comfortable cells ---------------------------
  if (config.max_downsize_moves > 0) {
    sta.update();
    int down = 0;
    for (const Cell& c : netlist.cells()) {
      if (down >= config.max_downsize_moves) break;
      if (netlist.is_port(c.id)) continue;
      double s = sta.cell_worst_slack(c.id);
      if (s < config.downsize_slack_margin || s >= kUntimed) continue;
      LibCellId dn = lib.downsize(c.lib);
      if (!dn.valid()) continue;
      double delta = estimate_resize_delta(sta, netlist, c.id, dn);
      // Only downsize when the predicted slowdown stays well inside the
      // cell's slack cushion.
      if (delta < 0.5 * (s - config.downsize_slack_margin)) {
        netlist.resize_cell(c.id, dn);
        ++result.downsized;
        ++down;
      }
    }
  }

  sta.update();
  static MetricsCounter& ctr_up =
      MetricsRegistry::global().counter("opt.sizing.upsized");
  static MetricsCounter& ctr_down =
      MetricsRegistry::global().counter("opt.sizing.downsized");
  ctr_up.add(static_cast<std::uint64_t>(result.upsized));
  ctr_down.add(static_cast<std::uint64_t>(result.downsized));
  return result;
}

}  // namespace rlccd
