// Bit-exactness of the register-tiled matmul kernels (DESIGN.md Sec. 5,
// "Dense kernels"). The textbook loops below are the reference: forward
// values, dA and dB must equal them byte for byte over shapes that hit every
// whole tile and every row/column tail, with zeros and all-zero rows in A,
// infs in B and dO under zero A entries (the `a == 0` skips), and gradients
// that are already non-zero (the accumulation order). ops::linear must equal
// add_rowvec(matmul) byte for byte in value and in all three gradients.
//
// The live-row backward (ops::OutRows::live) of linear, add,
// scale_by_scalar, sigmoid, spmm and gather_rows must equal the full
// backward byte for byte when dO is zero outside the live rows, over live
// sets that leave every remainder of the row tile; an inf in a dead row is
// where the two part.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"

namespace rlccd {
namespace {

// out[m,n] += a[m,k] * b[k,n]
void textbook_forward(const std::vector<float>& a, const std::vector<float>& b,
                      std::vector<float>& out, std::size_t m, std::size_t k,
                      std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* orow = out.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

// da[m,k] += dout[m,n] * b[k,n]^T
void textbook_grad_a(const std::vector<float>& dout,
                     const std::vector<float>& b, std::vector<float>& da,
                     std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* grow = dout.data() + i * n;
    float* agrow = da.data() + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = b.data() + kk * n;
      float acc = 0.0f;
      for (std::size_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
      agrow[kk] += acc;
    }
  }
}

// db[k,n] += a[m,k]^T * dout[m,n]
void textbook_grad_b(const std::vector<float>& a,
                     const std::vector<float>& dout, std::vector<float>& db,
                     std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    const float* grow = dout.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      float* bgrow = db.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) bgrow[j] += av * grow[j];
    }
  }
}

std::vector<float> random_values(std::size_t count, Rng& rng) {
  std::vector<float> v(count);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<float> values(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Backpropagates sum(out .* dout), so out's gradient is exactly `dout`.
void backward_with(const Tensor& out, const std::vector<float>& dout) {
  Tensor g = Tensor::from_data(dout, out.rows(), out.cols());
  ops::sum(ops::mul(out, g)).backward();
}

// A with about a third zeros, row 0 all zero, and column 0 zero on every
// even row; B with an inf at (0, 0), under those zeros (the forward's skip).
// dO is zero in column 0 of every third row (dA has no skip, so those rows
// take 0 * inf = NaN) and holds an inf in row 0, under A's zero row (dB's
// skip). OpsLiveRows.InfInADeadRowIsSkipped is the live-row backward's inf
// case.
struct Operands {
  std::vector<float> a, b, dout, a_grad, b_grad;
};

Operands make_operands(std::size_t m, std::size_t k, std::size_t n,
                       std::uint64_t seed) {
  Rng rng(seed);
  Operands op;
  op.a = random_values(m * k, rng);
  for (float& v : op.a) {
    if (rng.uniform() < 0.33) v = 0.0f;
  }
  for (std::size_t kk = 0; kk < k; ++kk) op.a[kk] = 0.0f;
  for (std::size_t i = 0; i < m; i += 2) op.a[i * k] = 0.0f;
  op.b = random_values(k * n, rng);
  op.b[0] = std::numeric_limits<float>::infinity();
  op.dout = random_values(m * n, rng);
  for (std::size_t i = 0; i < m; i += 3) op.dout[i * n] = 0.0f;
  op.dout[n - 1] = std::numeric_limits<float>::infinity();
  op.a_grad = random_values(m * k, rng);
  op.b_grad = random_values(k * n, rng);
  return op;
}

TEST(OpsKernel, MatmulMatchesTextbookLoopsBitForBit) {
  const std::size_t ms[] = {1, 3, 4, 5, 1103};
  const std::size_t ks[] = {1, 13, 15, 16, 17, 32, 33};
  const std::size_t ns[] = {1, 8, 15, 16, 17, 32, 33};
  std::uint64_t seed = 1;
  for (std::size_t m : ms) {
    for (std::size_t k : ks) {
      for (std::size_t n : ns) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n));
        const Operands op = make_operands(m, k, n, seed++);

        std::vector<float> want_out(m * n, 0.0f);
        textbook_forward(op.a, op.b, want_out, m, k, n);
        std::vector<float> want_da = op.a_grad;
        textbook_grad_a(op.dout, op.b, want_da, m, k, n);
        std::vector<float> want_db = op.b_grad;
        textbook_grad_b(op.a, op.dout, want_db, m, k, n);

        Tensor a = Tensor::from_data(op.a, m, k, /*requires_grad=*/true);
        Tensor b = Tensor::from_data(op.b, k, n, /*requires_grad=*/true);
        a.grad_mut() = op.a_grad;
        b.grad_mut() = op.b_grad;
        Tensor out = ops::matmul(a, b);
        const std::vector<float> got_out = values(out);
        backward_with(out, op.dout);

        EXPECT_TRUE(same_bits(got_out, want_out)) << "forward";
        EXPECT_TRUE(same_bits(a.grad(), want_da)) << "dA";
        EXPECT_TRUE(same_bits(b.grad(), want_db)) << "dB";
      }
    }
  }
}

TEST(OpsKernel, LinearEqualsAddRowvecOfMatmulBitForBit) {
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{1103, 13, 32}, {1103, 32, 16}, {5, 17, 33},
                          {1, 48, 32},    {4, 16, 1},     {3, 1, 8}};
  std::uint64_t seed = 500;
  for (const Shape& s : shapes) {
    SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                 " n=" + std::to_string(s.n));
    const Operands op = make_operands(s.m, s.k, s.n, seed++);
    Rng rng(seed++);
    const std::vector<float> bias = random_values(s.n, rng);
    const std::vector<float> bias_grad = random_values(s.n, rng);

    auto leaves = [&] {
      std::vector<Tensor> t = {
          Tensor::from_data(op.a, s.m, s.k, /*requires_grad=*/true),
          Tensor::from_data(op.b, s.k, s.n, /*requires_grad=*/true),
          Tensor::from_data(bias, 1, s.n, /*requires_grad=*/true)};
      t[0].grad_mut() = op.a_grad;
      t[1].grad_mut() = op.b_grad;
      t[2].grad_mut() = bias_grad;
      return t;
    };
    std::vector<Tensor> fused = leaves();
    std::vector<Tensor> plain = leaves();
    Tensor y_fused = ops::linear(fused[0], fused[1], fused[2]);
    Tensor y_plain =
        ops::add_rowvec(ops::matmul(plain[0], plain[1]), plain[2]);
    EXPECT_TRUE(same_bits(values(y_fused), values(y_plain))) << "value";
    backward_with(y_fused, op.dout);
    backward_with(y_plain, op.dout);
    EXPECT_TRUE(same_bits(fused[0].grad(), plain[0].grad())) << "dx";
    EXPECT_TRUE(same_bits(fused[1].grad(), plain[1].grad())) << "dW";
    EXPECT_TRUE(same_bits(fused[2].grad(), plain[2].grad())) << "db";
  }
}

TEST(OpsKernel, LinearWithOnlyTheBiasTrainable) {
  // x and w take no gradient, so only the bias backward runs.
  Tensor x = Tensor::from_data({1.0f, 2.0f, 3.0f, 4.0f}, 2, 2);
  Tensor w = Tensor::from_data({1.0f, 0.0f, 0.0f, 1.0f}, 2, 2);
  Tensor b = Tensor::from_data({0.5f, -0.5f}, 1, 2, /*requires_grad=*/true);
  Tensor y = ops::linear(x, w, b);
  EXPECT_EQ(y.at(0, 0), 1.5f);
  EXPECT_EQ(y.at(1, 1), 3.5f);
  ops::sum(y).backward();
  EXPECT_EQ(b.grad(), (std::vector<float>{2.0f, 2.0f}));
}

// ---------------------------------------------------------------------------
// Live-row backward.

// Ascending rows of [0, m): every `stride`-th from `first`.
ops::RowList every(std::size_t m, std::size_t first, std::size_t stride) {
  ops::RowList rows;
  for (std::size_t r = first; r < m; r += stride) {
    rows.push_back(static_cast<std::uint32_t>(r));
  }
  return rows;
}

// None, the first row, the last, every second, every third from the
// second, all but the last, and all: live row counts that leave every
// remainder of the 4-row tile.
std::vector<ops::RowList> live_patterns(std::size_t m) {
  std::vector<ops::RowList> patterns = {{}, {0}, every(m, m - 1, 1),
                                        every(m, 0, 2), every(m, 1, 3)};
  ops::RowList all = every(m, 0, 1);
  patterns.push_back(ops::RowList(all.begin(), all.end() - 1));
  patterns.push_back(all);
  return patterns;
}

ops::OutRows live_only(const ops::RowList& rows) {
  ops::OutRows out;
  out.live = std::make_shared<const ops::RowList>(rows);
  return out;
}

std::string describe(const ops::RowList& rows) {
  std::string s = "live rows {";
  for (std::uint32_t r : rows) s += " " + std::to_string(r);
  return s + " }";
}

// Random leaves of the given shapes, each with a random gradient already
// accumulated.
std::vector<Tensor> random_leaves(
    const std::vector<std::pair<std::size_t, std::size_t>>& shapes,
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> leaves;
  for (const auto& [rows, cols] : shapes) {
    std::vector<float> v = random_values(rows * cols, rng);
    for (float& x : v) {
      if (rng.uniform() < 0.2) x = 0.0f;
    }
    leaves.push_back(Tensor::from_data(v, rows, cols, /*requires_grad=*/true));
    leaves.back().grad_mut() = random_values(rows * cols, rng);
  }
  return leaves;
}

// Builds op(leaves, rows) twice over the same leaf values, without live rows
// and with `live`, backwards one dO that is zero outside `live`, and expects
// every leaf gradient of the two to be byte-identical.
template <class Op>
void expect_live_equals_full(
    const std::vector<std::pair<std::size_t, std::size_t>>& leaf_shapes,
    const ops::RowList& live, std::uint64_t seed, Op op) {
  SCOPED_TRACE(describe(live));
  std::vector<Tensor> full = random_leaves(leaf_shapes, seed);
  std::vector<Tensor> part = random_leaves(leaf_shapes, seed);
  Tensor out_full = op(full, ops::OutRows{});
  Tensor out_part = op(part, live_only(live));
  Rng rng(seed + 1);
  std::vector<float> dout = random_values(out_full.size(), rng);
  const std::size_t n = out_full.cols();
  std::vector<char> is_live(out_full.rows(), 0);
  for (std::uint32_t r : live) is_live[r] = 1;
  for (std::size_t r = 0; r < out_full.rows(); ++r) {
    if (!is_live[r]) std::fill_n(dout.begin() + r * n, n, 0.0f);
  }
  backward_with(out_full, dout);
  backward_with(out_part, dout);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(same_bits(full[i].grad(), part[i].grad())) << "leaf " << i;
  }
}

TEST(OpsLiveRows, LinearEqualsTheFullBackwardBitForBit) {
  const std::size_t ms[] = {1, 5, 9, 38};
  const std::size_t ks[] = {1, 13, 16, 17, 33};
  const std::size_t ns[] = {1, 15, 16, 17, 33};
  std::uint64_t seed = 900;
  for (std::size_t m : ms) {
    for (std::size_t k : ks) {
      for (std::size_t n : ns) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n));
        for (const ops::RowList& live : live_patterns(m)) {
          expect_live_equals_full(
              {{m, k}, {k, n}, {1, n}}, live, seed++,
              [](std::vector<Tensor>& t, const ops::OutRows& rows) {
                return ops::linear(t[0], t[1], t[2], rows);
              });
        }
      }
    }
  }
}

// The elementwise ops over [m, n] operands.
template <class Op>
void expect_elementwise_live_equals_full(std::size_t operands, Op op) {
  std::uint64_t seed = 1700;
  for (std::size_t m : {1, 5, 38}) {
    for (std::size_t n : {1, 7, 32}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      std::vector<std::pair<std::size_t, std::size_t>> shapes(operands,
                                                              {m, n});
      for (const ops::RowList& live : live_patterns(m)) {
        expect_live_equals_full(shapes, live, seed++, op);
      }
    }
  }
}

TEST(OpsLiveRows, AddEqualsTheFullBackwardBitForBit) {
  expect_elementwise_live_equals_full(
      2, [](std::vector<Tensor>& t, const ops::OutRows& rows) {
        return ops::add(t[0], t[1], rows);
      });
}

TEST(OpsLiveRows, SigmoidEqualsTheFullBackwardBitForBit) {
  expect_elementwise_live_equals_full(
      1, [](std::vector<Tensor>& t, const ops::OutRows& rows) {
        return ops::sigmoid(t[0], rows);
      });
}

TEST(OpsLiveRows, ScaleByScalarEqualsTheFullBackwardBitForBit) {
  // The scalar's gradient is one serial sum over the visited elements.
  std::uint64_t seed = 2500;
  for (std::size_t m : {1, 5, 38}) {
    for (std::size_t n : {1, 7, 32}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      for (const ops::RowList& live : live_patterns(m)) {
        expect_live_equals_full(
            {{m, n}, {1, 1}}, live, seed++,
            [](std::vector<Tensor>& t, const ops::OutRows& rows) {
              return ops::scale_by_scalar(t[0], t[1], rows);
            });
      }
    }
  }
}

TEST(OpsLiveRows, SpmmEqualsTheFullBackwardBitForBit) {
  // Columns read by several rows take their terms in row order either way;
  // some rows and columns are empty.
  std::uint64_t seed = 3100;
  for (std::size_t m : {1, 5, 38}) {
    for (std::size_t cols : {1, 6, 40}) {
      Rng rng(seed);
      std::vector<SparseMatrix::Triplet> triplets;
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          if (r % 4 != 3 && rng.uniform() < 0.4) {
            triplets.push_back({static_cast<std::uint32_t>(r),
                                static_cast<std::uint32_t>(c),
                                static_cast<float>(rng.uniform(-1.0, 1.0))});
          }
        }
      }
      const SparseOperand sp(
          SparseMatrix::from_triplets(m, cols, std::move(triplets)));
      for (std::size_t n : {1, 7, 32}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " cols=" +
                     std::to_string(cols) + " n=" + std::to_string(n));
        for (const ops::RowList& live : live_patterns(m)) {
          expect_live_equals_full(
              {{cols, n}}, live, seed++,
              [&sp](std::vector<Tensor>& t, const ops::OutRows& rows) {
                return ops::spmm(sp, t[0], rows);
              });
        }
      }
    }
  }
}

TEST(OpsLiveRows, GatherRowsEqualsTheFullBackwardBitForBit) {
  // Several output rows gather one input row: they add into it in order.
  std::uint64_t seed = 4300;
  for (std::size_t m : {1, 5, 38}) {
    for (std::size_t src_rows : {1, 4, 20}) {
      Rng rng(seed);
      std::vector<std::size_t> idx(m);
      for (std::size_t& i : idx) i = rng.uniform_int(src_rows);
      for (std::size_t n : {1, 7, 32}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " src_rows=" +
                     std::to_string(src_rows) + " n=" + std::to_string(n));
        for (const ops::RowList& live : live_patterns(m)) {
          expect_live_equals_full(
              {{src_rows, n}}, live, seed++,
              [&idx](std::vector<Tensor>& t, const ops::OutRows& rows) {
                return ops::gather_rows(t[0], idx, rows);
              });
        }
      }
    }
  }
}

TEST(OpsLiveRows, InfInADeadRowIsSkipped) {
  // Row 1 of x is dead (its dO is zero) and holds an inf. The full
  // backward adds inf * 0 = NaN into dW; the live one never reads the row.
  // This is why the EP-GNN encoder checks every value it computes before
  // it lets a backward skip rows.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> x = {1.0f, 2.0f, kInf, 1.0f, 3.0f, 4.0f};
  const std::vector<float> dout = {0.5f, -1.0f, 0.0f, 0.0f, 2.0f, 0.25f};
  auto dw = [&](const ops::OutRows& rows) {
    Tensor xt = Tensor::from_data(x, 3, 2, /*requires_grad=*/true);
    Tensor w = Tensor::from_data({0.5f, -0.5f, 1.0f, 2.0f}, 2, 2,
                                 /*requires_grad=*/true);
    Tensor b = Tensor::from_data({0.0f, 1.0f}, 1, 2, /*requires_grad=*/true);
    backward_with(ops::linear(xt, w, b, rows), dout);
    return w.grad();
  };
  const std::vector<float> full = dw({});
  const std::vector<float> live = dw(live_only({0, 2}));
  EXPECT_TRUE(std::isnan(full[0]) && std::isnan(full[1]));
  for (float g : live) EXPECT_TRUE(std::isfinite(g)) << g;
  EXPECT_EQ(live[0], 0.5f * 1.0f + 2.0f * 3.0f);
}

}  // namespace
}  // namespace rlccd
