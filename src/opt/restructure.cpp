#include "opt/restructure.h"

#include <algorithm>
#include <vector>

namespace rlccd {

namespace {

bool is_commutative(CellKind kind) {
  switch (kind) {
    case CellKind::Nand2:
    case CellKind::Nor2:
    case CellKind::And2:
    case CellKind::Or2:
    case CellKind::Xor2:
      return true;
    default:
      return false;
  }
}

}  // namespace

RestructureResult run_restructure(Sta& sta, Netlist& netlist,
                                  const RestructureConfig& config) {
  RLCCD_SPAN("restructure");
  RestructureResult result;
  sta.update();

  struct Candidate {
    CellId cell;
    double slack;
  };
  std::vector<Candidate> candidates;
  for (const Cell& c : netlist.cells()) {
    const LibCell& lc = netlist.lib_cell(c.id);
    if (!is_commutative(lc.kind) || c.inputs.size() < 2) continue;
    double s = sta.slack(c.output);
    if (s < 0.0 && s > -kUntimed) candidates.push_back({c.id, s});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.slack < b.slack;
            });

  for (const Candidate& cand : candidates) {
    if (result.swaps >= config.max_swaps) break;
    const Cell& c = netlist.cell(cand.cell);
    const LibCell& lc = netlist.lib_cell(cand.cell);
    // Worst output arrival per input assignment: arr(in_i) + delta(pin_i).
    // The optimal assignment pairs late arrivals with fast pins, i.e. sorts
    // inputs by arrival descending onto pins by delta ascending. For the
    // 2-input gates in the library one swap decides it.
    const PinTiming& t0 = sta.timing(c.inputs[0]);
    const PinTiming& t1 = sta.timing(c.inputs[1]);
    if (!t0.reachable || !t1.reachable) continue;
    double d0 = lc.pin_delta[0];
    double d1 = lc.pin_delta[1];
    double current = std::max(t0.arrival_max + d0, t1.arrival_max + d1);
    double swapped = std::max(t1.arrival_max + d0, t0.arrival_max + d1);
    if (swapped + 1e-9 < current) {
      netlist.swap_input_nets(cand.cell, 0, 1);
      ++result.swaps;
    }
  }

  sta.update();
  static MetricsCounter& ctr =
      MetricsRegistry::global().counter("opt.restructure.swaps");
  ctr.add(static_cast<std::uint64_t>(result.swaps));
  return result;
}

}  // namespace rlccd
