// Bit-exactness of the register-tiled matmul kernels (DESIGN.md Sec. 5,
// "Dense kernels"). The textbook loops below are the reference: forward
// values, dA and dB must equal them byte for byte over shapes that hit every
// whole tile and every row/column tail of the 32- and 16-column tiles, with
// zeros and all-zero rows in A, infs in B and dO under zero A entries (the
// `a == 0` skips), and gradients that are already non-zero (the
// accumulation order). The kernels run at the build's own lane width and
// tile rows. ops::linear must equal add_rowvec(matmul) byte for byte in
// value and in all three gradients.
//
// ops::gated_sigmoid must equal the four-node chain it replaced
// (scale_by_scalar twice, add, sigmoid; their loops are copied below) byte
// for byte in value and in all four gradients, with all rows, with dirty
// rows over a prior output and with live rows.
//
// The live-row backward (ops::OutRows::live) of linear, add,
// gated_sigmoid, spmm and gather_rows must equal the full backward byte for
// byte when dO is zero outside the live rows, over live sets that leave
// every remainder of the row tile; an inf in a dead row is where the two
// part.
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

void expect_matmul_matches_textbook(std::size_t m, std::size_t k,
                                    std::size_t n, std::uint64_t seed) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n));
  const Operands op = make_operands(m, k, n, seed);

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

TEST(OpsKernel, MatmulMatchesTextbookLoopsBitForBit) {
  // Columns (n for out and dB, k for dA): one partial 16-column tile (1,
  // 15), whole ones (16, 48, 64), 16 after 16 (17, 31), 32 alone (32) and
  // 16 after 32 (33, 48). Rows (m for out and dA, k for dB): every
  // remainder of a 4-, 2- or 1-row tile.
  const std::size_t sizes[] = {1, 2, 3, 15, 16, 17, 31, 32, 33, 48, 64};
  std::uint64_t seed = 1;
  for (std::size_t m : sizes) {
    for (std::size_t k : sizes) {
      for (std::size_t n : sizes) expect_matmul_matches_textbook(m, k, n, seed++);
    }
  }
  // The EP-GNN's shapes on a 1,103-cell design.
  for (std::size_t k : {13, 32}) {
    for (std::size_t n : {1, 16, 32}) {
      expect_matmul_matches_textbook(1103, k, n, seed++);
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
  const std::size_t ks[] = {1, 2, 13, 16, 17, 31, 32, 33, 48};
  const std::size_t ns[] = {1, 2, 13, 16, 17, 31, 32, 33, 48};
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

// The fused gate's live-row backward in two parts. The sigmoid's: gamma and
// 1 - gamma are constants, so only proj and agg take gradients, element by
// element.
TEST(OpsLiveRows, SigmoidEqualsTheFullBackwardBitForBit) {
  expect_elementwise_live_equals_full(
      2, [](std::vector<Tensor>& t, const ops::OutRows& rows) {
        return ops::gated_sigmoid(t[0], t[1], Tensor::scalar(0.375f),
                                  Tensor::scalar(0.625f), rows);
      });
}

// The scalar scalings': gamma and 1 - gamma take gradients too, each one
// serial sum over the visited elements.
TEST(OpsLiveRows, ScaleByScalarEqualsTheFullBackwardBitForBit) {
  std::uint64_t seed = 2500;
  for (std::size_t m : {1, 5, 38}) {
    for (std::size_t n : {1, 7, 32}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      for (const ops::RowList& live : live_patterns(m)) {
        expect_live_equals_full(
            {{m, n}, {m, n}, {1, 1}, {1, 1}}, live, seed++,
            [](std::vector<Tensor>& t, const ops::OutRows& rows) {
              return ops::gated_sigmoid(t[0], t[1], t[2], t[3], rows);
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

// ---------------------------------------------------------------------------
// The fused gate.

struct GateOperands {
  std::size_t m = 0, n = 0;
  std::vector<float> proj, agg, dh;  // [m, n]
  float gamma = 0.0f, one_minus = 0.0f;
  // Gradients the inputs already hold.
  std::vector<float> proj_grad, agg_grad;
  float gamma_grad = 0.0f, one_minus_grad = 0.0f;
};

struct GateResult {
  std::vector<float> h, proj_grad, agg_grad;
  float gamma_grad = 0.0f, one_minus_grad = 0.0f;
};

GateOperands make_gate_operands(std::size_t m, std::size_t n,
                                std::uint64_t seed) {
  Rng rng(seed);
  GateOperands op;
  op.m = m;
  op.n = n;
  op.proj = random_values(m * n, rng);
  op.agg = random_values(m * n, rng);
  for (float& v : op.proj) v *= 4.0f;
  op.dh = random_values(m * n, rng);
  op.gamma = static_cast<float>(rng.uniform(0.05, 0.95));
  op.one_minus = 1.0f - op.gamma;
  op.proj_grad = random_values(m * n, rng);
  op.agg_grad = random_values(m * n, rng);
  op.gamma_grad = static_cast<float>(rng.uniform(-1.0, 1.0));
  op.one_minus_grad = static_cast<float>(rng.uniform(-1.0, 1.0));
  return op;
}

// The unfused chain, sigmoid(add(scale_by_scalar(proj, gamma),
// scale_by_scalar(agg, one_minus))): its loops in the order its forward
// ran them, then its backward from dh over the rows in `visit` (every row
// when null) in the order the topological sort ran the nodes -- sigmoid,
// add, agg's scale, proj's scale -- each node's grad starting at +0.
GateResult chain_reference(const GateOperands& op, const ops::RowList* visit) {
  const std::size_t size = op.m * op.n;
  auto each = [&](auto f) {
    if (visit == nullptr) {
      for (std::size_t i = 0; i < size; ++i) f(i);
      return;
    }
    for (std::uint32_t r : *visit) {
      for (std::size_t i = r * op.n; i < (r + 1) * op.n; ++i) f(i);
    }
  };
  std::vector<float> self(size), scaled(size), pre(size);
  GateResult r;
  r.h.resize(size);
  for (std::size_t i = 0; i < size; ++i) self[i] = op.gamma * op.proj[i];
  for (std::size_t i = 0; i < size; ++i) {
    scaled[i] = op.one_minus * op.agg[i];
  }
  for (std::size_t i = 0; i < size; ++i) pre[i] = self[i] + scaled[i];
  for (std::size_t i = 0; i < size; ++i) {
    r.h[i] = 1.0f / (1.0f + std::exp(-pre[i]));
  }

  std::vector<float> pre_grad(size, 0.0f), self_grad(size, 0.0f),
      scaled_grad(size, 0.0f);
  each([&](std::size_t i) {
    pre_grad[i] += op.dh[i] * (r.h[i] * (1.0f - r.h[i]));
  });
  each([&](std::size_t i) { self_grad[i] += pre_grad[i]; });
  each([&](std::size_t i) { scaled_grad[i] += pre_grad[i]; });
  r.agg_grad = op.agg_grad;
  each([&](std::size_t i) { r.agg_grad[i] += op.one_minus * scaled_grad[i]; });
  float acc = 0.0f;
  each([&](std::size_t i) { acc += op.agg[i] * scaled_grad[i]; });
  r.one_minus_grad = op.one_minus_grad + acc;
  r.proj_grad = op.proj_grad;
  each([&](std::size_t i) { r.proj_grad[i] += op.gamma * self_grad[i]; });
  acc = 0.0f;
  each([&](std::size_t i) { acc += op.proj[i] * self_grad[i]; });
  r.gamma_grad = op.gamma_grad + acc;
  return r;
}

struct GateLeaves {
  Tensor proj, agg, gamma, one_minus;
};

GateLeaves gate_leaves(const GateOperands& op) {
  GateLeaves t{Tensor::from_data(op.proj, op.m, op.n, true),
               Tensor::from_data(op.agg, op.m, op.n, true),
               Tensor::scalar(op.gamma, true),
               Tensor::scalar(op.one_minus, true)};
  t.proj.grad_mut() = op.proj_grad;
  t.agg.grad_mut() = op.agg_grad;
  t.gamma.grad_mut() = {op.gamma_grad};
  t.one_minus.grad_mut() = {op.one_minus_grad};
  return t;
}

// The fused op's value, then its gradients after a backward from dh.
GateResult fused_gate(const GateOperands& op, const ops::OutRows& rows) {
  GateLeaves t = gate_leaves(op);
  Tensor h = ops::gated_sigmoid(t.proj, t.agg, t.gamma, t.one_minus, rows);
  GateResult r;
  r.h = values(h);
  backward_with(h, op.dh);
  r.proj_grad = t.proj.grad();
  r.agg_grad = t.agg.grad();
  r.gamma_grad = t.gamma.grad()[0];
  r.one_minus_grad = t.one_minus.grad()[0];
  return r;
}

bool same_bits(float x, float y) {
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

void expect_same_gate(const GateResult& got, const GateResult& want) {
  EXPECT_TRUE(same_bits(got.h, want.h)) << "value";
  EXPECT_TRUE(same_bits(got.proj_grad, want.proj_grad)) << "d proj";
  EXPECT_TRUE(same_bits(got.agg_grad, want.agg_grad)) << "d agg";
  EXPECT_TRUE(same_bits(got.gamma_grad, want.gamma_grad))
      << "d gamma " << got.gamma_grad << " vs " << want.gamma_grad;
  EXPECT_TRUE(same_bits(got.one_minus_grad, want.one_minus_grad))
      << "d one_minus " << got.one_minus_grad << " vs "
      << want.one_minus_grad;
}

TEST(GatedSigmoid, EqualsTheScalarScaleChainBitForBit) {
  std::uint64_t seed = 5100;
  for (std::size_t m : {1, 5, 38, 1103}) {
    for (std::size_t n : {1, 7, 32}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      const GateOperands op = make_gate_operands(m, n, seed++);
      expect_same_gate(fused_gate(op, {}), chain_reference(op, nullptr));
    }
  }
}

TEST(GatedSigmoid, DirtyRowsOverAPriorEqualTheChainBitForBit) {
  // The prior is the op one step earlier; the dirty rows' inputs change,
  // the others keep the prior's values.
  std::uint64_t seed = 5300;
  for (std::size_t m : {1, 5, 38}) {
    for (std::size_t n : {1, 7, 32}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      const GateOperands before = make_gate_operands(m, n, seed++);
      GateOperands after = before;
      const ops::RowList dirty = every(m, m / 2, 3);
      Rng rng(seed++);
      for (std::uint32_t r : dirty) {
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
          after.proj[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
          after.agg[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
      }
      GateLeaves prior_leaves = gate_leaves(before);
      Tensor prior =
          ops::gated_sigmoid(prior_leaves.proj, prior_leaves.agg,
                             prior_leaves.gamma, prior_leaves.one_minus);
      ops::OutRows rows;
      rows.prior = &prior;
      rows.dirty = &dirty;
      expect_same_gate(fused_gate(after, rows), chain_reference(after, nullptr));
    }
  }
}

TEST(GatedSigmoid, LiveRowsEqualTheChainBitForBit) {
  std::uint64_t seed = 5500;
  for (std::size_t m : {1, 5, 38}) {
    for (std::size_t n : {1, 7, 32}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      for (const ops::RowList& live : live_patterns(m)) {
        SCOPED_TRACE(describe(live));
        GateOperands op = make_gate_operands(m, n, seed++);
        std::vector<char> is_live(m, 0);
        for (std::uint32_t r : live) is_live[r] = 1;
        for (std::size_t r = 0; r < m; ++r) {
          if (!is_live[r]) std::fill_n(op.dh.begin() + r * n, n, 0.0f);
        }
        expect_same_gate(fused_gate(op, live_only(live)),
                         chain_reference(op, &live));
      }
    }
  }
}

TEST(GatedSigmoid, InfAndNanInDeadRowsAreSkipped) {
  // Rows 1 and 3 are dead (zero dh): row 1's proj holds an inf and row 3's
  // agg a NaN. The full backward adds inf * 0 and NaN terms into the
  // scalars' sums; the live one never reads those rows and equals the
  // chain over the live rows.
  constexpr std::size_t m = 5, n = 7;
  GateOperands op = make_gate_operands(m, n, 5900);
  op.proj[1 * n + 2] = std::numeric_limits<float>::infinity();
  op.agg[3 * n + 4] = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t r : {1, 3}) std::fill_n(op.dh.begin() + r * n, n, 0.0f);
  const ops::RowList live = {0, 2, 4};

  const GateResult full = fused_gate(op, {});
  EXPECT_TRUE(std::isnan(full.gamma_grad));
  EXPECT_TRUE(std::isnan(full.one_minus_grad));

  const GateResult part = fused_gate(op, live_only(live));
  expect_same_gate(part, chain_reference(op, &live));
  for (const std::vector<float>* g : {&part.proj_grad, &part.agg_grad}) {
    for (float v : *g) EXPECT_TRUE(std::isfinite(v)) << v;
  }
  EXPECT_TRUE(std::isfinite(part.gamma_grad));
  EXPECT_TRUE(std::isfinite(part.one_minus_grad));
}

}  // namespace
}  // namespace rlccd
