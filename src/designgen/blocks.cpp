#include "designgen/blocks.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace rlccd {

namespace {

BlockSpec make_block(std::string name, TechNode tech, std::size_t cells,
                     PaperRow paper, std::uint64_t seed) {
  BlockSpec spec;
  spec.name = std::move(name);
  spec.tech = tech;
  spec.paper_cells = cells;
  spec.paper = paper;
  spec.seed = seed;

  // Endpoint density: enough flops that the paper's begin violating-endpoint
  // count is reachable, within realistic bounds.
  double vio_density = static_cast<double>(paper.begin_vio) /
                       static_cast<double>(cells);
  spec.seq_fraction = std::clamp(1.6 * vio_density, 0.10, 0.35);

  // Fraction of endpoints that should begin violating drives how heavy the
  // critical tail is.
  double viol_frac = vio_density / spec.seq_fraction;
  spec.deep_endpoint_fraction = std::clamp(0.9 * viol_frac, 0.06, 0.60);

  switch (tech) {
    case TechNode::N5: spec.max_depth = 20; break;
    case TechNode::N7: spec.max_depth = 18; break;
    case TechNode::N12: spec.max_depth = 16; break;
  }
  spec.min_depth = 3;
  // Per-block logic-sharing variation in [0.25, 0.45].
  spec.reuse_prob = 0.25 + 0.02 * static_cast<double>(seed % 11);
  return spec;
}

std::vector<BlockSpec> build_blocks() {
  std::vector<BlockSpec> blocks;
  // Table II rows:          begin: WNS      TNS      vio    power  | default: WNS    TNS     vio   power  | RL: WNS     TNS     gain%  vio   power    rt
  blocks.push_back(make_block("block1", TechNode::N5, 577000,
      {-0.24, -2009.98, 33785, 482.92, -0.16, -97.20, 4296, 1114.33, -0.16, -84.00, 14.1, 3603, 1116.48, 16}, 1));
  blocks.push_back(make_block("block2", TechNode::N5, 1300000,
      {-0.18, -1104.03, 40091, 761.41, -0.05, -2.93, 540, 764.13, -0.07, -2.56, 12.6, 443, 763.98, 36}, 2));
  blocks.push_back(make_block("block3", TechNode::N7, 353000,
      {-0.26, -2966.04, 36265, 468.06, -0.17, -149.28, 4119, 474.72, -0.18, -87.45, 41.4, 1942, 473.80, 29}, 3));
  blocks.push_back(make_block("block4", TechNode::N7, 370000,
      {-0.46, -4590.85, 38943, 297.19, -0.11, -20.78, 1258, 322.48, -0.12, -7.40, 64.4, 421, 321.97, 31}, 4));
  blocks.push_back(make_block("block5", TechNode::N7, 194000,
      {-0.27, -1165.33, 9708, 199.45, -0.14, -162.45, 4271, 205.50, -0.14, -59.99, 63.1, 2081, 204.95, 39}, 5));
  blocks.push_back(make_block("block6", TechNode::N7, 195000,
      {-0.30, -1382.51, 8704, 102.03, -0.16, -69.90, 1424, 120.03, -0.16, -50.31, 28.0, 1146, 119.50, 20}, 6));
  blocks.push_back(make_block("block7", TechNode::N7, 416000,
      {-0.34, -2108.89, 14086, 121.56, -0.15, -41.47, 1149, 134.25, -0.16, -39.98, 3.6, 1009, 134.35, 21}, 7));
  blocks.push_back(make_block("block8", TechNode::N12, 135000,
      {-0.15, -1186.14, 21272, 348.10, -0.10, -72.18, 2796, 349.43, -0.10, -61.32, 15.0, 2314, 349.56, 42}, 8));
  blocks.push_back(make_block("block9", TechNode::N12, 162000,
      {-0.11, -50.90, 1784, 113.35, -0.02, -0.28, 75, 114.61, -0.01, -0.11, 60.7, 44, 114.55, 8}, 9));
  blocks.push_back(make_block("block10", TechNode::N12, 84000,
      {-0.43, -4428.41, 29951, 90.60, -0.26, -205.47, 3669, 90.70, -0.25, -189.92, 7.6, 3603, 90.69, 45}, 10));
  blocks.push_back(make_block("block11", TechNode::N12, 180000,
      {-0.29, -793.53, 10658, 266.72, -0.12, -5.67, 149, 276.96, -0.09, -4.04, 28.8, 135, 276.79, 32}, 11));
  blocks.push_back(make_block("block12", TechNode::N12, 243000,
      {-0.32, -1720.92, 18465, 78.72, -0.19, -102.90, 2223, 27.83, -0.18, -79.90, 22.4, 1794, 27.83, 46}, 12));
  blocks.push_back(make_block("block13", TechNode::N5, 507000,
      {-0.12, -375.08, 12987, 63.48, -0.06, -39.37, 3779, 64.95, -0.06, -33.72, 14.4, 3291, 64.80, 10}, 13));
  blocks.push_back(make_block("block14", TechNode::N5, 816000,
      {-0.16, -1913.75, 44044, 333.60, -0.06, -51.43, 4260, 340.07, -0.06, -48.89, 4.9, 3915, 340.00, 7}, 14));
  blocks.push_back(make_block("block15", TechNode::N5, 821000,
      {-0.18, -331.51, 11002, 66.17, -0.11, -40.55, 2116, 66.72, -0.11, -37.78, 6.8, 1861, 66.71, 20}, 15));
  blocks.push_back(make_block("block16", TechNode::N7, 432000,
      {-0.18, -374.15, 9228, 27.18, -0.07, -32.24, 2586, 28.09, -0.05, -24.89, 22.8, 2149, 28.09, 16}, 16));
  blocks.push_back(make_block("block17", TechNode::N7, 507000,
      {-0.14, -226.09, 8860, 407.69, -0.07, -46.22, 2472, 412.26, -0.06, -33.05, 28.5, 2361, 412.21, 35}, 17));
  blocks.push_back(make_block("block18", TechNode::N12, 412000,
      {-0.41, -2787.22, 51675, 583.88, -0.10, -6.14, 123, 1183.46, -0.10, -5.81, 5.4, 124, 1182.23, 26}, 18));
  blocks.push_back(make_block("block19", TechNode::N5, 922000,
      {-0.16, -383.69, 8009, 98.66, -0.09, -19.01, 667, 218.38, -0.06, -13.71, 27.9, 626, 218.33, 47}, 19));
  return blocks;
}

}  // namespace

const std::vector<BlockSpec>& paper_blocks() {
  static const std::vector<BlockSpec> blocks = build_blocks();
  return blocks;
}

bool block_known(const std::string& name) {
  for (const BlockSpec& b : paper_blocks()) {
    if (b.name == name) return true;
  }
  return false;
}

const BlockSpec& find_block(const std::string& name) {
  for (const BlockSpec& b : paper_blocks()) {
    if (b.name == name) return b;
  }
  RLCCD_EXPECTS(!"unknown block name");
  return paper_blocks().front();
}

GeneratorConfig to_generator_config(const BlockSpec& spec, double scale) {
  RLCCD_EXPECTS(scale > 0.0 && scale <= 1.0);
  GeneratorConfig cfg;
  cfg.name = spec.name;
  cfg.tech = spec.tech;
  cfg.target_cells = std::max<std::size_t>(
      200, static_cast<std::size_t>(
               std::round(static_cast<double>(spec.paper_cells) * scale)));
  cfg.seq_fraction = spec.seq_fraction;
  cfg.min_depth = spec.min_depth;
  cfg.max_depth = spec.max_depth;
  cfg.deep_endpoint_fraction = spec.deep_endpoint_fraction;
  cfg.reuse_prob = spec.reuse_prob;
  cfg.seed = spec.seed;

  std::size_t io = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::sqrt(
              static_cast<double>(cfg.target_cells)) * 1.5));
  cfg.num_primary_inputs = io;
  cfg.num_primary_outputs = std::max<std::size_t>(8, io / 2);

  // Clock tightness from the paper's begin-WNS to period ratio: with
  // period = t x critical-path, begin WNS ~ -(1 - t) x critical-path, so
  // |WNS| / period = (1 - t) / t.
  Tech tech = make_tech(spec.tech);
  double ratio = std::abs(spec.paper.begin_wns) / tech.default_clock_period;
  // The 0.94 factor tightens slightly beyond the paper-implied ratio so the
  // flow retains a residual violation profile (our substrate's optimizers
  // are proportionally stronger on synthetic netlists than ICC2's on
  // industrial ones).
  cfg.clock_tightness = std::clamp(0.94 / (1.0 + ratio), 0.55, 0.92);
  return cfg;
}

}  // namespace rlccd
