// Buffer-insertion pass (data-path optimization).
//
// Targets violating nets whose wire load dominates: the farthest sinks are
// split off behind a freshly placed buffer at their centroid, shielding the
// driver from wire capacitance and shortening the critical net arc.
// Budgeted like the sizing pass.
#pragma once

#include "sta/sta.h"

namespace rlccd {

struct BufferConfig {
  int max_buffers = 50;
  // Only consider nets at least this long (um) or with this many sinks.
  double min_hpwl = 20.0;
  std::size_t min_fanout = 4;
};

struct BufferResult {
  int buffers_inserted = 0;
};

BufferResult run_buffering(Sta& sta, Netlist& netlist,
                           const BufferConfig& config);

}  // namespace rlccd
