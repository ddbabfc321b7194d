// EpGnn::Encoder's live-row backward against the full backward. Along
// sequences in which the valid endpoints only shrink, as a rollout's masking
// shrinks them, every step backwards one loss through encode(x, &valid) and
// through a full forward: sum(f .* w), with w zero on the invalid endpoints
// as the masked softmax leaves their gradient zero. All 17 parameter
// gradients must be equal byte for byte, also when a dead row holds an inf
// or a NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/finite.h"
#include "helpers/ep_gnn_graph.h"

namespace rlccd {
namespace {

using testing::GeneratedGraph;
using testing::grads_of;
using testing::same_bits;

using Grads = std::vector<std::vector<float>>;

// The loss weights for `valid`: `w`'s rows, zeroed on the invalid endpoints.
Tensor loss_weights(const std::vector<float>& w,
                    const std::vector<char>& valid, std::size_t cols) {
  std::vector<float> v = w;
  for (std::size_t e = 0; e < valid.size(); ++e) {
    if (!valid[e]) std::fill_n(v.begin() + e * cols, cols, 0.0f);
  }
  return Tensor::from_data(std::move(v), valid.size(), cols);
}

void expect_same_grads(const Grads& live, const Grads& full) {
  ASSERT_EQ(live.size(), 17u);
  ASSERT_EQ(live.size(), full.size());
  for (std::size_t p = 0; p < live.size(); ++p) {
    ASSERT_EQ(live[p].size(), full[p].size());
    EXPECT_TRUE(same_bits(live[p].data(), full[p].data(), live[p].size()))
        << "gradient of parameter " << p << " differs";
    EXPECT_EQ(all_finite(live[p]), all_finite(full[p])) << "parameter " << p;
  }
}

bool all_grads_finite(const Grads& grads) {
  for (const std::vector<float>& g : grads) {
    if (!all_finite(g)) return false;
  }
  return true;
}

// One rollout's worth of steps on a design's EP-GNN inputs: the valid
// endpoints and the mask column as SelectionEnv keeps them.
struct Rollout {
  const SparseOperand& adj;
  const SparseOperand& cones;
  const std::vector<std::size_t>& ep_rows;
  EpGnn gnn;
  std::vector<float> w;  // loss weights, [endpoints, embedding]
  std::vector<char> valid;
  std::vector<char> flags;
  Rng rng;

  Rollout(const SparseOperand& adjacency, const SparseOperand& cone_matrix,
          const std::vector<std::size_t>& endpoint_rows, std::uint64_t seed)
      : adj(adjacency),
        cones(cone_matrix),
        ep_rows(endpoint_rows),
        valid(endpoint_rows.size(), 1),
        flags(adjacency.matrix.rows, 0),
        rng(seed * 7919 + 1) {
    Rng init(seed);
    gnn = EpGnn(EpGnnConfig{}, init);
    w.resize(ep_rows.size() * gnn.config().embedding);
    for (float& v : w) v = static_cast<float>(init.uniform(-1.0, 1.0));
  }

  [[nodiscard]] std::size_t valid_count() const {
    return static_cast<std::size_t>(std::count(valid.begin(), valid.end(), 1));
  }

  // Masks endpoint `e`: it is no longer valid, and its cell's mask flag is
  // set.
  void mask(std::size_t e) {
    valid[e] = 0;
    flags[ep_rows[e]] = 1;
  }

  // Masks a fifth of the valid endpoints (at least one), keeping one valid.
  void shrink() {
    std::size_t n = std::max<std::size_t>(1, valid_count() / 5);
    while (n > 0 && valid_count() > 1) {
      const std::size_t e = rng.uniform_int(valid.size());
      if (!valid[e]) continue;
      mask(e);
      --n;
    }
  }

  [[nodiscard]] Tensor weights() const {
    return loss_weights(w, valid, gnn.config().embedding);
  }

  // The full backward's gradients for the current step.
  [[nodiscard]] Grads full_grads(const Tensor& x) const {
    const Tensor f = gnn.forward(x, adj, cones, ep_rows);
    return grads_of(gnn, f, weights());
  }
};

class EpGnnLiveRows
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint64_t>> {
};

TEST_P(EpGnnLiveRows, ShrinkingValidSetsMatchTheFullBackwardBitForBit) {
  const auto [cells, seed] = GetParam();
  const GeneratedGraph g(cells, seed);
  ASSERT_GT(g.ep_rows.size(), 2u);
  Rollout ro(*g.adj, *g.cones, g.ep_rows, seed);
  EpGnn::Encoder encoder(ro.gnn, *g.adj, *g.cones, g.ep_rows);
  // From every endpoint valid down to one, then two more steps with one.
  int steps_with_one = 0;
  for (int step = 0; steps_with_one < 3; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step << ", "
                                      << ro.valid_count() << " valid");
    const Tensor x = g.with_mask(ro.flags);
    Grads live;
    {
      const Tensor f = encoder.encode(x, &ro.valid);
      live = grads_of(ro.gnn, f, ro.weights());
    }
    expect_same_grads(live, ro.full_grads(x));
    EXPECT_LE(encoder.rows_backward(), encoder.rows_full());
    if (ro.valid_count() == 1) {
      EXPECT_LT(encoder.rows_backward(), encoder.rows_full());
      ++steps_with_one;
    }
    ro.shrink();
  }
}

TEST_P(EpGnnLiveRows, FreshEncoderPerStepMatchesTheFullBackward) {
  // RolloutMode::FullGraph: a fresh encoder every step, every step's graph
  // alive until one backward at the end, after the encoders are gone.
  const auto [cells, seed] = GetParam();
  const GeneratedGraph g(cells, seed);
  Rollout ro(*g.adj, *g.cones, g.ep_rows, seed + 100);
  Tensor live_loss = Tensor::zeros(1, 1);
  Tensor full_loss = Tensor::zeros(1, 1);
  for (int step = 0; step < 8; ++step) {
    const Tensor x = g.with_mask(ro.flags);
    const Tensor w = ro.weights();
    Tensor f;
    {
      EpGnn::Encoder encoder(ro.gnn, *g.adj, *g.cones, g.ep_rows);
      f = encoder.encode(x, &ro.valid);
    }
    live_loss = ops::add(live_loss, ops::sum(ops::mul(f, w)));
    const Tensor full = ro.gnn.forward(x, *g.adj, *g.cones, g.ep_rows);
    full_loss = ops::add(full_loss, ops::sum(ops::mul(full, w)));
    ro.shrink();
  }
  const Tensor ones = Tensor::full(1, 1, 1.0f);
  const Grads live = grads_of(ro.gnn, live_loss, ones);
  expect_same_grads(live, grads_of(ro.gnn, full_loss, ones));
}

TEST_P(EpGnnLiveRows, NonFiniteValueInADeadRowRunsTheFullBackward) {
  // An inf and then a NaN in a dead row's features: the full backward
  // multiplies them by the row's zero gradient and turns them into NaN, so
  // the encoder must not skip the row. From then on its backward visits
  // every row, also once the features are finite again.
  const auto [cells, seed] = GetParam();
  const GeneratedGraph g(cells, seed);
  Rollout ro(*g.adj, *g.cones, g.ep_rows, seed + 200);
  const std::size_t keep = g.ep_rows.size() / 2;
  for (std::size_t e = 0; e < g.ep_rows.size(); ++e) {
    if (e != keep) ro.mask(e);
  }
  // The cells whose gradient can be nonzero: the kept endpoint's own cell
  // and cone, then one adjacency hop per earlier layer.
  std::vector<char> reach(g.cells(), 0);
  reach[g.ep_rows[keep]] = 1;
  const SparseMatrix& cone = g.cones->matrix;
  for (std::uint32_t k = cone.row_ptr[keep]; k < cone.row_ptr[keep + 1]; ++k) {
    reach[cone.col_idx[k]] = 1;
  }
  const SparseMatrix& adj = g.adj->matrix;
  for (int hop = 1; hop < ro.gnn.config().layers; ++hop) {
    const std::vector<char> from = reach;
    for (std::size_t r = 0; r < g.cells(); ++r) {
      if (!from[r]) continue;
      for (std::uint32_t k = adj.row_ptr[r]; k < adj.row_ptr[r + 1]; ++k) {
        reach[adj.col_idx[k]] = 1;
      }
    }
  }
  const auto dead = std::find(reach.begin(), reach.end(), 0);
  ASSERT_NE(dead, reach.end());
  const std::size_t dead_row = static_cast<std::size_t>(dead - reach.begin());

  EpGnn::Encoder encoder(ro.gnn, *g.adj, *g.cones, g.ep_rows);
  const float planted[] = {1.0f, std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN(), 1.0f};
  for (std::size_t step = 0; step < 4; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step << ", feature "
                                      << planted[step]);
    Tensor x = g.with_mask(ro.flags);
    if (step == 1 || step == 2) x.set(dead_row, 1, planted[step]);
    Grads live;
    {
      const Tensor f = encoder.encode(x, &ro.valid);
      live = grads_of(ro.gnn, f, ro.weights());
    }
    const Grads full = ro.full_grads(x);
    expect_same_grads(live, full);
    EXPECT_EQ(all_grads_finite(full), step == 0 || step == 3);
    if (step == 0) {
      EXPECT_LT(encoder.rows_backward(), encoder.rows_full());
    } else {
      EXPECT_EQ(encoder.rows_backward(), encoder.rows_full());
    }
  }
}

TEST(EpGnnLiveRows, TwoEndpointsOnOneCell) {
  // A twin of endpoint 0 on its cell, with endpoint 1's cone: the head
  // gathers one cell row for both. One of the pair is masked after the
  // first step and the other after the fourth, so for three steps the
  // shared cell row takes the gradient of one and not the other.
  const GeneratedGraph g(300, 11);
  ASSERT_GT(g.ep_rows.size(), 8u);
  std::vector<std::size_t> ep_rows = g.ep_rows;
  ep_rows.push_back(ep_rows[0]);
  const std::size_t twin = ep_rows.size() - 1;
  const SparseMatrix& c = g.cones->matrix;
  std::vector<SparseMatrix::Triplet> triplets;
  for (std::uint32_t r = 0; r < c.rows; ++r) {
    for (std::uint32_t k = c.row_ptr[r]; k < c.row_ptr[r + 1]; ++k) {
      triplets.push_back({r, c.col_idx[k], c.values[k]});
      if (r == 1) {
        triplets.push_back({static_cast<std::uint32_t>(twin), c.col_idx[k],
                            c.values[k]});
      }
    }
  }
  const SparseOperand cones(
      SparseMatrix::from_triplets(c.rows + 1, c.cols, std::move(triplets)));

  for (const std::size_t first : {std::size_t{0}, twin}) {
    SCOPED_TRACE(::testing::Message() << "endpoint " << first
                                      << " masked first");
    Rollout ro(*g.adj, cones, ep_rows, 5);
    EpGnn::Encoder encoder(ro.gnn, *g.adj, cones, ep_rows);
    for (int step = 0; step < 5; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      const Tensor x = g.with_mask(ro.flags);
      Grads live;
      {
        const Tensor f = encoder.encode(x, &ro.valid);
        live = grads_of(ro.gnn, f, ro.weights());
      }
      expect_same_grads(live, ro.full_grads(x));
      if (step == 0) ro.mask(first);
      if (step == 3) ro.mask(first == 0 ? twin : 0);
      ro.mask(2 + static_cast<std::size_t>(step));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpGnnDesigns, EpGnnLiveRows,
                         ::testing::Values(std::make_pair(300, 11),
                                           std::make_pair(500, 12),
                                           std::make_pair(900, 13)));

}  // namespace
}  // namespace rlccd
