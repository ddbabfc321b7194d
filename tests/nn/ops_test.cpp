#include "nn/ops.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rlccd {
namespace {

TEST(Ops, MatmulValues) {
  Tensor a = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::from_data({5, 6, 7, 8}, 2, 2);
  Tensor c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulNonSquare) {
  Tensor a = Tensor::from_data({1, 2, 3}, 1, 3);
  Tensor b = Tensor::from_data({1, 0, 0, 1, 1, 1}, 3, 2);
  Tensor c = ops::matmul(a, b);
  ASSERT_EQ(c.rows(), 1u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 5.0f);
}

TEST(Ops, ElementwiseArithmetic) {
  Tensor a = Tensor::from_data({1, -2}, 1, 2);
  Tensor b = Tensor::from_data({3, 4}, 1, 2);
  EXPECT_FLOAT_EQ(ops::add(a, b).at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(ops::sub(a, b).at(0, 1), -6.0f);
  EXPECT_FLOAT_EQ(ops::mul(a, b).at(0, 1), -8.0f);
  EXPECT_FLOAT_EQ(ops::affine(a, 2.0f, 1.0f).at(0, 0), 3.0f);
}

TEST(Ops, AddRowvecBroadcasts) {
  Tensor a = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  Tensor r = Tensor::from_data({10, 20}, 1, 2);
  Tensor c = ops::add_rowvec(a, r);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 24.0f);
}

TEST(Ops, Nonlinearities) {
  Tensor x = Tensor::from_data({0.0f, 100.0f, -100.0f}, 1, 3);
  Tensor s = ops::sigmoid(x);
  EXPECT_NEAR(s.at(0, 0), 0.5f, 1e-6);
  EXPECT_NEAR(s.at(0, 1), 1.0f, 1e-6);
  EXPECT_NEAR(s.at(0, 2), 0.0f, 1e-6);

  Tensor t = ops::tanh_op(Tensor::from_data({0.5f}, 1, 1));
  EXPECT_NEAR(t.item(), std::tanh(0.5f), 1e-6);

  Tensor r = ops::relu(Tensor::from_data({-1.0f, 2.0f}, 1, 2));
  EXPECT_FLOAT_EQ(r.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(0, 1), 2.0f);
}

TEST(Ops, Reductions) {
  Tensor x = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  EXPECT_FLOAT_EQ(ops::sum(x).item(), 10.0f);
  EXPECT_FLOAT_EQ(ops::mean(x).item(), 2.5f);
}

TEST(Ops, ConcatCols) {
  Tensor a = Tensor::from_data({1, 2}, 1, 2);
  Tensor b = Tensor::from_data({3}, 1, 1);
  Tensor c = ops::concat_cols(a, b);
  ASSERT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c.at(0, 2), 3.0f);
}

TEST(Ops, GatherRowsAndPick) {
  Tensor a = Tensor::from_data({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor g = ops::gather_rows(a, {2, 0});
  ASSERT_EQ(g.rows(), 2u);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(ops::pick(a, 1, 1).item(), 4.0f);
}

TEST(Ops, MaskedLogSoftmaxNormalizesOverValid) {
  Tensor scores = Tensor::from_data({1.0f, 2.0f, 3.0f}, 3, 1);
  std::vector<char> valid = {1, 0, 1};
  Tensor lp = ops::masked_log_softmax(scores, valid);
  // p over {1,3}: exp(1)/(exp(1)+exp(3)), exp(3)/(...)
  double z = std::exp(1.0) + std::exp(3.0);
  EXPECT_NEAR(lp.at(0, 0), std::log(std::exp(1.0) / z), 1e-5);
  EXPECT_NEAR(lp.at(2, 0), std::log(std::exp(3.0) / z), 1e-5);
  EXPECT_LT(lp.at(1, 0), -1e20f);  // masked = -inf surrogate
  // Probabilities of valid entries sum to 1.
  EXPECT_NEAR(std::exp(lp.at(0, 0)) + std::exp(lp.at(2, 0)), 1.0, 1e-6);
}

TEST(Ops, MaskedLogSoftmaxStableForLargeScores) {
  Tensor scores = Tensor::from_data({1000.0f, 999.0f}, 2, 1);
  std::vector<char> valid = {1, 1};
  Tensor lp = ops::masked_log_softmax(scores, valid);
  EXPECT_TRUE(std::isfinite(lp.at(0, 0)));
  // Single-precision at |score| ~ 1e3 keeps ~4 digits after the point.
  EXPECT_NEAR(std::exp(lp.at(0, 0)) + std::exp(lp.at(1, 0)), 1.0, 1e-3);
}

TEST(Ops, GatedSigmoid) {
  // sigmoid(0.25 * proj + 0.75 * agg): 0.25 * 2 + 0.75 * -2 = -1.
  Tensor proj = Tensor::from_data({1, 2}, 1, 2);
  Tensor agg = Tensor::from_data({0, -2}, 1, 2);
  Tensor h = ops::gated_sigmoid(proj, agg, Tensor::scalar(0.25f),
                                Tensor::scalar(0.75f));
  EXPECT_FLOAT_EQ(h.at(0, 0), 1.0f / (1.0f + std::exp(-0.25f)));
  EXPECT_FLOAT_EQ(h.at(0, 1), 1.0f / (1.0f + std::exp(1.0f)));
}

TEST(Ops, SpmmMatchesDense) {
  // A = [[0,1],[2,0]], X = [[1,2],[3,4]] -> AX = [[3,4],[2,4]]
  SparseOperand a(SparseMatrix::from_triplets(
      2, 2, {{0, 1, 1.0f}, {1, 0, 2.0f}}));
  Tensor x = Tensor::from_data({1, 2, 3, 4}, 2, 2);
  Tensor y = ops::spmm(a, x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 4.0f);
}

}  // namespace
}  // namespace rlccd
