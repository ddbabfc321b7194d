#include "opt/useful_skew.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace rlccd {

namespace {
// Fraction of a flop's launch/capture imbalance applied per sweep.
constexpr double kRate = 0.6;
// Convergence threshold (ns): smaller moves are skipped, and a sweep whose
// largest move is smaller ends the loop.
constexpr double kMinMove = 1e-4;
}

UsefulSkewResult run_useful_skew(Sta& sta, const UsefulSkewConfig& config) {
  RLCCD_SPAN("useful_skew");
  const Netlist& nl = sta.netlist();
  std::vector<CellId> flops = nl.sequential_cells();
  UsefulSkewResult result;

  for (int sweep = 0; sweep < config.max_sweeps; ++sweep) {
    sta.update();
    double max_move = 0.0;
    for (CellId f : flops) {
      const Cell& c = nl.cell(f);
      // Capture side: worst slack of the paths ending at this flop.
      double in_slack = sta.endpoint_slack(c.inputs[0]);
      // Launch side: worst slack of the paths starting at this flop.
      double out_slack = sta.slack(c.output);
      if (in_slack >= kUntimed && out_slack >= kUntimed) continue;
      // A flop with no timed capture (or launch) side can donate freely.
      in_slack = std::min(in_slack, 1e6);
      out_slack = std::min(out_slack, 1e6);

      double move = kRate * 0.5 * (out_slack - in_slack);
      double delta = sta.clock().adjustment(f);
      // Skew bound.
      move = std::clamp(move, -config.max_abs_skew - delta,
                        config.max_abs_skew - delta);
      // Delaying capture eats this flop's own hold slack.
      if (move > 0.0) {
        double hold = sta.endpoint_hold_slack(c.inputs[0]);
        if (hold < kUntimed) {
          move = std::min(move, std::max(0.0, hold - config.hold_guard));
        }
      }
      if (std::abs(move) < kMinMove) continue;
      sta.clock().set_adjustment(f, delta + move);
      max_move = std::max(max_move, std::abs(move));
    }
    ++result.sweeps;
    if (max_move < kMinMove) break;
  }

  sta.update();
  for (CellId f : flops) {
    double d = sta.clock().adjustment(f);
    if (d != 0.0) {
      ++result.flops_adjusted;
      result.max_abs_adjustment = std::max(result.max_abs_adjustment,
                                           std::abs(d));
    }
  }
  static MetricsCounter& ctr_sweeps =
      MetricsRegistry::global().counter("opt.useful_skew.sweeps");
  static MetricsCounter& ctr_adjusted =
      MetricsRegistry::global().counter("opt.useful_skew.flops_adjusted");
  ctr_sweeps.add(static_cast<std::uint64_t>(result.sweeps));
  ctr_adjusted.add(static_cast<std::uint64_t>(result.flops_adjusted));
  return result;
}

}  // namespace rlccd
