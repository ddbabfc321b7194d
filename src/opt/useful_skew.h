// Useful-skew engine: iterative local slack balancing.
//
// Each flop owns a clock-arrival adjustment delta in [-max_abs_skew,
// +max_abs_skew]. Per sweep, every flop compares the worst setup slack of the
// paths it *captures* (slack at its D endpoint, margins included — this is
// where the RL prioritization margins bite) against the worst slack of the
// paths it *launches* (slack at its Q pin) and moves its delta to balance the
// two, clamped by the skew bound and by the flop's own hold slack. Sweeps
// repeat with a full STA update in between until moves die out — the classic
// relaxation form of clock-skew scheduling.
//
// Greedy locality is deliberate: like production CCD engines, the balancer
// spreads slack evenly with no notion of which endpoints the *downstream*
// data-path optimizer could fix cheaply. That blindness is exactly the gap
// the paper's endpoint prioritization exploits.
#pragma once

#include "sta/sta.h"

namespace rlccd {

struct UsefulSkewConfig {
  double max_abs_skew = 0.15;   // ns; bound on |delta| per flop
  int max_sweeps = 25;
  double hold_guard = 0.0;      // keep endpoint hold slack >= this
};

struct UsefulSkewResult {
  int sweeps = 0;
  int flops_adjusted = 0;       // flops with a nonzero final adjustment
  double max_abs_adjustment = 0.0;
};

// Balances the schedule in sta.clock(); leaves sta fully updated.
UsefulSkewResult run_useful_skew(Sta& sta, const UsefulSkewConfig& config);

}  // namespace rlccd
