// The 19 benchmark blocks of the paper's Table II.
//
// The industrial designs are confidential, so each block is regenerated
// synthetically at ~1/100 of the paper's cell count with knobs chosen to
// mirror the paper's *relative* difficulty: clock tightness is derived from
// the paper's begin-WNS-to-period ratio, and the endpoint/violation profile
// from the begin #violating-endpoints density. The paper's reported numbers
// are embedded so benches can print paper-vs-measured side by side.
#pragma once

#include <string>
#include <vector>

#include "designgen/generator.h"

namespace rlccd {

struct PaperRow {
  // "begin" (post global place) columns.
  double begin_wns = 0.0;
  double begin_tns = 0.0;
  long begin_vio = 0;
  double begin_power = 0.0;
  // default tool flow columns.
  double def_wns = 0.0;
  double def_tns = 0.0;
  long def_vio = 0;
  double def_power = 0.0;
  // RL-CCD columns.
  double rl_wns = 0.0;
  double rl_tns = 0.0;
  double rl_tns_gain_pct = 0.0;  // paper's "(goal)" percentage, positive = better
  long rl_vio = 0;
  double rl_power = 0.0;
  double rl_runtime_factor = 0.0;  // runtime normalized to default flow
};

struct BlockSpec {
  std::string name;
  TechNode tech = TechNode::N7;
  std::size_t paper_cells = 0;  // the paper's instance count
  PaperRow paper;

  // Generator knobs (see to_generator_config()).
  double seq_fraction = 0.15;
  int min_depth = 4;
  int max_depth = 16;
  double deep_endpoint_fraction = 0.2;
  double reuse_prob = 0.35;
  std::uint64_t seed = 1;
};

// All 19 blocks, in Table II order.
const std::vector<BlockSpec>& paper_blocks();

// Whether `name` is one of the 19 block names. Check user input with it
// before find_block().
bool block_known(const std::string& name);

// Lookup by name ("block11"); aborts if missing.
const BlockSpec& find_block(const std::string& name);

// Builds a GeneratorConfig for a block at `scale` of the paper cell count
// (default 1/100); aborts unless 0 < scale <= 1. Clock tightness is derived
// from the paper begin-WNS.
GeneratorConfig to_generator_config(const BlockSpec& spec,
                                    double scale = 0.01);

}  // namespace rlccd
