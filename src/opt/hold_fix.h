// Hold-violation fixing: pads short paths with delay buffers.
//
// Aggressive useful skew (or a CTS realization with quantization error) can
// push capture clocks late enough that fast paths violate hold. This pass
// inserts small delay buffers in front of violating endpoints' D pins until
// their hold slack is non-negative, the standard post-CCD cleanup. Setup
// slack is respected: a pad is only inserted while the endpoint keeps
// setup slack above `setup_guard`.
#pragma once

#include "sta/sta.h"

namespace rlccd {

struct HoldFixConfig {
  int max_buffers = 200;
  double setup_guard = 0.0;    // keep setup slack >= this while padding
  double hold_guard = 0.0;     // target hold slack
};

struct HoldFixResult {
  int buffers_inserted = 0;
  std::size_t endpoints_fixed = 0;
  std::size_t endpoints_unfixable = 0;  // would break setup
};

HoldFixResult run_hold_fix(Sta& sta, Netlist& netlist,
                           const HoldFixConfig& config);

}  // namespace rlccd
