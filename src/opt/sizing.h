// Gate-sizing pass (data-path optimization).
//
// Greedy, budgeted: cells on violating paths are visited worst-slack first;
// an upsize is committed when a local delay model (own arc speedup under
// load minus the upstream slowdown from the larger input capacitance)
// predicts a win. Optionally recovers power by downsizing cells with
// comfortable slack. The *budget* is the crucial knob: like a real tool's
// effort limit it makes data-path fixing a scarce resource, so choosing
// which endpoints the clock path should over-fix (the paper's problem)
// actually matters.
#pragma once

#include "sta/sta.h"

namespace rlccd {

struct SizingConfig {
  int max_upsize_moves = 200;
  int max_downsize_moves = 0;        // 0 disables power recovery
  double downsize_slack_margin = 0.10;  // ns of slack required to downsize
};

struct SizingResult {
  int upsized = 0;
  int downsized = 0;
};

// Runs one sizing pass; leaves sta fully updated.
SizingResult run_sizing(Sta& sta, Netlist& netlist,
                        const SizingConfig& config);

// Predicted delay change (ns, negative = faster) of swapping `cell` to
// `new_lib`: the cell's own arc evaluated at the worst propagated input
// transition from `sta`, plus its fanin drivers' delay and output-slew
// response to the input-capacitance change. Exposed for tests.
double estimate_resize_delta(const Sta& sta, const Netlist& netlist,
                             CellId cell, LibCellId new_lib);

}  // namespace rlccd
