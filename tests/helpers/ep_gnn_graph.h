// EP-GNN inputs built from a generated design, and the gradient helpers the
// EP-GNN encoder tests share.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "designgen/generator.h"
#include "gnn/ep_gnn.h"
#include "gnn/features.h"
#include "gnn/graph.h"

namespace rlccd::testing {

// A generated design's EP-GNN inputs, built as rl/design_graph.cpp builds
// them.
struct GeneratedGraph {
  Design design;
  std::unique_ptr<SparseOperand> adj;
  std::unique_ptr<SparseOperand> cones;
  std::vector<std::size_t> ep_rows;
  Tensor features;

  GeneratedGraph(std::size_t cells, std::uint64_t seed) {
    GeneratorConfig cfg;
    cfg.target_cells = cells;
    cfg.seed = seed;
    cfg.clock_tightness = 0.75;
    design = generate_design(cfg);
    Sta sta = design.make_sta();
    sta.run();
    const std::vector<PinId> endpoints = sta.endpoint_violations();
    const Netlist& nl = *design.netlist;
    const ConeIndex cone_index(nl, endpoints);
    adj = std::make_unique<SparseOperand>(build_mean_adjacency(nl));
    cones = std::make_unique<SparseOperand>(build_cone_matrix(nl, cone_index));
    ep_rows = endpoint_cell_rows(nl, endpoints);
    FeatureContext ctx;
    ctx.netlist = &nl;
    ctx.sta = &sta;
    ctx.activity = &design.activity;
    ctx.die = design.die;
    ctx.clock_period = design.clock_period;
    features = build_node_features(ctx);
  }

  [[nodiscard]] std::size_t cells() const { return features.rows(); }

  [[nodiscard]] Tensor with_mask(const std::vector<char>& flags) const {
    Tensor x = features.detach_copy();
    set_masked_column(x, flags);
    return x;
  }
};

inline bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Backwards sum(f .* weights) and returns every parameter's gradient,
// leaving the grads zeroed.
inline std::vector<std::vector<float>> grads_of(const EpGnn& gnn,
                                                const Tensor& f,
                                                const Tensor& weights) {
  ops::sum(ops::mul(f, weights)).backward();
  std::vector<std::vector<float>> grads;
  for (Tensor& p : gnn.parameters()) {
    grads.push_back(p.grad());
    p.zero_grad();
  }
  return grads;
}

}  // namespace rlccd::testing
