#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace rlccd::ops {

namespace {

// True when `t` exists and accumulates a gradient (requires_grad).
inline bool wants_grad(TensorImpl* t) { return t != nullptr && t->requires_grad; }

// The output node of an op computing `rows` (ops.h OutRows): make_result's,
// over the prior's value storage when there is one.
Tensor make_output(std::size_t m, std::size_t n,
                   std::vector<std::shared_ptr<TensorImpl>> parents,
                   const OutRows& rows) {
  if (rows.prior == nullptr) return make_result(m, n, std::move(parents));
  RLCCD_EXPECTS(rows.dirty != nullptr);
  TensorImpl& prior = rows.prior->impl();
  RLCCD_EXPECTS(prior.rows == m && prior.cols == n);
  for (std::uint32_t r : *rows.dirty) RLCCD_EXPECTS(r < m);
  return make_result(m, n, std::move(parents), std::move(prior.value));
}

// Calls f(r) for each row of [0, m) when `rows` is null, else for each
// listed row, in list order.
template <class F>
void for_each_row(const RowList* rows, std::size_t m, F&& f) {
  if (rows == nullptr) {
    for (std::size_t r = 0; r < m; ++r) f(r);
  } else {
    for (std::uint32_t r : *rows) f(r);
  }
}

// Calls f(r) for each output row `rows` computes: every row of [0, m)
// without a prior, else the dirty rows.
template <class F>
void for_each_out_row(const OutRows& rows, std::size_t m, F&& f) {
  for_each_row(rows.prior != nullptr ? rows.dirty : nullptr, m, f);
}

// The live rows an op with `m` output rows was given (ops.h OutRows), after
// checking that they are ascending rows of [0, m).
std::shared_ptr<const RowList> checked_live(const OutRows& rows,
                                            std::size_t m) {
  if (rows.live != nullptr) {
    const RowList& live = *rows.live;
    for (std::size_t i = 0; i < live.size(); ++i) {
      RLCCD_EXPECTS(live[i] < m && (i == 0 || live[i - 1] < live[i]));
    }
  }
  return rows.live;
}

// The rows a backward visits when they are not every row of [0, m), else
// null: a list of every row visits them in the same order as the full
// loops, so those run instead.
const RowList* live_subset(const std::shared_ptr<const RowList>& live,
                           std::size_t m) {
  return live != nullptr && live->size() < m ? live.get() : nullptr;
}

// ---------------------------------------------------------------------------
// Dense kernels (DESIGN.md Sec. 5, "Dense kernels").
//
// matmul's three products -- out = A*B, dA += dO*B^T, dB += A^T*dO -- all run
// on one register tile: R rows x C columns of the result stay in vector
// registers for the whole reduction, and each reduction step adds one term
// per element. Every element still adds its terms one at a time, in the
// order of the textbook loops, from the same starting value and with the
// same `a == 0` skips; only how many elements are in flight changes. Under
// the build's -ffp-contract=off the results are therefore bit-identical to
// the textbook loops, whatever the tile's shape and the lanes' width
// (tests/nn/ops_kernel_test.cpp keeps them as reference).

// Lanes is one vector register of the target: 512 bits with AVX-512, 256
// with AVX, else 128 (SSE2, NEON; builds without -march=native). A generic
// vector wider than the target's registers is lowered through memory and
// runs slower than the textbook loops.
#if defined(__AVX512F__)
constexpr std::size_t kLaneWidth = 16;
constexpr std::size_t kVectorRegisters = 32;
#elif defined(__AVX__)
constexpr std::size_t kLaneWidth = 8;
constexpr std::size_t kVectorRegisters = 16;
#else
constexpr std::size_t kLaneWidth = 4;
constexpr std::size_t kVectorRegisters = 16;
#endif
using Lanes = float __attribute__((vector_size(kLaneWidth * sizeof(float))));

// Column tiles are 32 wide -- the hidden width of every EP-GNN, LSTM and
// attention product -- while 32 columns remain, then 16 wide.
constexpr std::size_t kWideCols = 32;
constexpr std::size_t kNarrowCols = 16;

// Rows of a C-column tile, 1 to 4: as many as keep its accumulators in
// half the vector registers; the rest hold the reduction step's row of
// lanes. A 4 x 32 tile of 256-bit lanes would spill on AVX2's 16.
template <std::size_t C>
constexpr std::size_t kTileRows = std::clamp<std::size_t>(
    kVectorRegisters / 2 / (C / kLaneWidth), 1, 4);

template <std::size_t C>
using Tile = float[C];

// tile[r][:] += sum_t s[r][t' * s_step] * row_t'[:], t ascending, where
// row_t' = rows + t' * row_step holds C floats and t' is t, or t_rows[t]
// when kListed. With kSkipZero a term whose scalar is 0 is skipped, as the
// textbook loops skip `a == 0`.
template <std::size_t R, std::size_t C, bool kSkipZero, bool kListed = false>
void accumulate_tile(Tile<C> (&tile)[R], const float* const (&s)[R],
                     std::size_t s_step, const float* rows,
                     std::size_t row_step, std::size_t steps,
                     const std::uint32_t* t_rows = nullptr) {
  constexpr std::size_t kRowVecs = C / kLaneWidth;
  Lanes acc[R][kRowVecs];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < kRowVecs; ++q) {
      std::memcpy(&acc[r][q], &tile[r][q * kLaneWidth], sizeof(Lanes));
    }
  }
  for (std::size_t t = 0; t < steps; ++t) {
    std::size_t tt = t;
    if constexpr (kListed) tt = t_rows[t];
    Lanes v[kRowVecs];
    for (std::size_t q = 0; q < kRowVecs; ++q) {
      std::memcpy(&v[q], rows + tt * row_step + q * kLaneWidth, sizeof(Lanes));
    }
    for (std::size_t r = 0; r < R; ++r) {
      const float sv = s[r][tt * s_step];
      if constexpr (kSkipZero) {
        if (sv == 0.0f) continue;
      }
      for (std::size_t q = 0; q < kRowVecs; ++q) acc[r][q] += sv * v[q];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < kRowVecs; ++q) {
      std::memcpy(&tile[r][q * kLaneWidth], &acc[r][q], sizeof(Lanes));
    }
  }
}

// Calls f(cols, j0) over the column tiles of [0, n): kWideCols tiles, then
// kNarrowCols tiles, the last one partial. cols is a std::integral_constant.
template <class F>
void for_each_col_tile(std::size_t n, F&& f) {
  std::size_t j0 = 0;
  for (; j0 + kWideCols <= n; j0 += kWideCols) {
    f(std::integral_constant<std::size_t, kWideCols>{}, j0);
  }
  for (; j0 < n; j0 += kNarrowCols) {
    f(std::integral_constant<std::size_t, kNarrowCols>{}, j0);
  }
}

// Calls f(rows_in_tile, first_row) over [0, n): whole kTileRows<C> tiles,
// then single rows. rows_in_tile is a std::integral_constant.
template <std::size_t C, class F>
void for_each_row_tile(std::size_t n, F&& f) {
  constexpr std::size_t R = kTileRows<C>;
  std::size_t r = 0;
  for (; r + R <= n; r += R) f(std::integral_constant<std::size_t, R>{}, r);
  for (; r < n; ++r) f(std::integral_constant<std::size_t, 1>{}, r);
}

// out[m,n] = a[m,k] * b[k,n] (+ bias[n] on every row). Column tiles of b are
// packed, zero-padded to the tile's width, so a tail tile runs the same
// kernel.
void gemm_forward(const float* a, const float* b, const float* bias,
                  float* out, std::size_t m, std::size_t k, std::size_t n) {
  std::vector<float> panel(k * kWideCols);
  for_each_col_tile(n, [&](auto tile_cols, std::size_t j0) {
    constexpr std::size_t C = decltype(tile_cols)::value;
    const std::size_t cols = std::min(C, n - j0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t c = 0; c < C; ++c) {
        panel[kk * C + c] = c < cols ? b[kk * n + j0 + c] : 0.0f;
      }
    }
    for_each_row_tile<C>(m, [&](auto rows, std::size_t i0) {
      constexpr std::size_t R = decltype(rows)::value;
      const float* a_rows[R];
      for (std::size_t r = 0; r < R; ++r) a_rows[r] = a + (i0 + r) * k;
      Tile<C> tile[R] = {};
      accumulate_tile<R, C, true>(tile, a_rows, 1, panel.data(), C, k);
      for (std::size_t r = 0; r < R; ++r) {
        float* orow = out + (i0 + r) * n + j0;
        for (std::size_t c = 0; c < cols; ++c) {
          orow[c] = bias != nullptr ? tile[r][c] + bias[j0 + c] : tile[r][c];
        }
      }
    });
  });
}

// da[m,k] += dout[m,n] * b[k,n]^T. Vectorized across k over a packed B^T:
// each element's n-term sum stays one serial chain in j order, as in the
// textbook loop (vectorizing across j would reassociate that sum). With
// `only`, just the listed rows of dout and da.
void gemm_grad_a(const float* dout, const float* b, float* da, std::size_t m,
                 std::size_t k, std::size_t n, const RowList* only) {
  std::vector<float> panel(n * kWideCols);
  for_each_col_tile(k, [&](auto tile_cols, std::size_t kk0) {
    constexpr std::size_t C = decltype(tile_cols)::value;
    const std::size_t cols = std::min(C, k - kk0);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t c = 0; c < C; ++c) {
        panel[j * C + c] = c < cols ? b[(kk0 + c) * n + j] : 0.0f;
      }
    }
    for_each_row_tile<C>(only != nullptr ? only->size() : m,
                         [&](auto rows, std::size_t i0) {
      constexpr std::size_t R = decltype(rows)::value;
      std::size_t row[R];
      const float* dout_rows[R];
      for (std::size_t r = 0; r < R; ++r) {
        row[r] = only != nullptr ? (*only)[i0 + r] : i0 + r;
        dout_rows[r] = dout + row[r] * n;
      }
      Tile<C> tile[R] = {};
      accumulate_tile<R, C, false>(tile, dout_rows, 1, panel.data(), C, n);
      for (std::size_t r = 0; r < R; ++r) {
        float* darow = da + row[r] * k + kk0;
        for (std::size_t c = 0; c < cols; ++c) darow[c] += tile[r][c];
      }
    });
  });
}

// db[k,n] += a[m,k]^T * dout[m,n]: a tile of db rows is loaded from the
// existing grad and the i-ordered products are added onto it, over the rows
// in `only` when given. A partial column tile reads a zero-padded copy of
// its dout columns.
void gemm_grad_b(const float* a, const float* dout, float* db, std::size_t m,
                 std::size_t k, std::size_t n, const RowList* only) {
  if (m == 0 || (only != nullptr && only->empty())) return;
  std::vector<float> panel;
  for_each_col_tile(n, [&](auto tile_cols, std::size_t j0) {
    constexpr std::size_t C = decltype(tile_cols)::value;
    const std::size_t cols = std::min(C, n - j0);
    const float* g = dout + j0;
    std::size_t g_step = n;
    if (cols < C) {
      panel.assign(m * C, 0.0f);
      for (std::size_t i = 0; i < m; ++i) {
        std::copy_n(dout + i * n + j0, cols, panel.data() + i * C);
      }
      g = panel.data();
      g_step = C;
    }
    for_each_row_tile<C>(k, [&](auto rows, std::size_t kk0) {
      constexpr std::size_t R = decltype(rows)::value;
      const float* a_cols[R];
      Tile<C> tile[R] = {};
      for (std::size_t r = 0; r < R; ++r) {
        a_cols[r] = a + kk0 + r;
        std::copy_n(db + (kk0 + r) * n + j0, cols, tile[r]);
      }
      if (only != nullptr) {
        accumulate_tile<R, C, true, true>(tile, a_cols, k, g, g_step,
                                          only->size(), only->data());
      } else {
        accumulate_tile<R, C, true>(tile, a_cols, k, g, g_step, m);
      }
      for (std::size_t r = 0; r < R; ++r) {
        std::copy_n(tile[r], cols, db + (kk0 + r) * n + j0);
      }
    });
  });
}

// a * b, plus `bias` broadcast over rows when given (ops::linear).
Tensor matmul_bias(const Tensor& a, const Tensor& b, const Tensor* bias,
                   const OutRows& rows) {
  RLCCD_EXPECTS(a.cols() == b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  std::vector<std::shared_ptr<TensorImpl>> parents{a.ptr(), b.ptr()};
  if (bias != nullptr) {
    RLCCD_EXPECTS(bias->rows() == 1 && bias->cols() == n);
    parents.push_back(bias->ptr());
  }
  Tensor out = make_output(m, n, std::move(parents), rows);
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* ri = bias != nullptr ? bias->ptr().get() : nullptr;
  TensorImpl* oi = out.ptr().get();
  const float* bias_v = ri != nullptr ? ri->value.data() : nullptr;
  if (rows.prior == nullptr) {
    gemm_forward(ai->value.data(), bi->value.data(), bias_v, oi->value.data(),
                 m, k, n);
  } else {
    // An output row reads only its own row of a, and the kernel computes it
    // the same way in any row position, so the dirty rows are packed,
    // multiplied as one shorter product and scattered back.
    const RowList& dirty = *rows.dirty;
    std::vector<float> packed_a(dirty.size() * k);
    std::vector<float> packed_out(dirty.size() * n);
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      std::copy_n(ai->value.data() + dirty[i] * k, k, packed_a.data() + i * k);
    }
    gemm_forward(packed_a.data(), bi->value.data(), bias_v, packed_out.data(),
                 dirty.size(), k, n);
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      std::copy_n(packed_out.data() + i * n, n,
                  oi->value.data() + dirty[i] * n);
    }
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, ri, oi, m, k, n,
                       live = checked_live(rows, m)]() {
      // With live rows the kernels read only those rows of dO and of A:
      // every dA and dB element takes the full product's terms in the same
      // order, less the zero ones.
      const RowList* visit = live_subset(live, m);
      if (wants_grad(ai)) {
        ai->ensure_grad();
        gemm_grad_a(oi->grad.data(), bi->value.data(), ai->grad.data(), m, k,
                    n, visit);
      }
      if (wants_grad(bi)) {
        bi->ensure_grad();
        gemm_grad_b(ai->value.data(), oi->grad.data(), bi->grad.data(), m, k,
                    n, visit);
      }
      if (wants_grad(ri)) {
        ri->ensure_grad();
        for_each_row(visit, m, [&](std::size_t i) {
          for (std::size_t j = 0; j < n; ++j) {
            ri->grad[j] += oi->grad[i * n + j];
          }
        });
      }
    };
  }
  return out;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul_bias(a, b, nullptr, {});
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b,
              const OutRows& rows) {
  return matmul_bias(x, w, &b, rows);
}

Tensor add(const Tensor& a, const Tensor& b, const OutRows& rows) {
  RLCCD_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = make_output(a.rows(), a.cols(), {a.ptr(), b.ptr()}, rows);
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  const std::size_t n = a.cols();
  for_each_out_row(rows, a.rows(), [&](std::size_t r) {
    for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
      oi->value[i] = ai->value[i] + bi->value[i];
    }
  });
  if (oi->requires_grad) {
    const std::size_t m = a.rows();
    oi->backward_fn = [ai, bi, oi, m, n, live = checked_live(rows, m)]() {
      const RowList* visit = live_subset(live, m);
      for (TensorImpl* in : {ai, bi}) {
        if (!wants_grad(in)) continue;
        in->ensure_grad();
        for_each_row(visit, m, [&](std::size_t r) {
          for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
            in->grad[i] += oi->grad[i];
          }
        });
      }
    };
  }
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  RLCCD_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr(), b.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = ai->value[i] - bi->value[i];
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, oi]() {
      if (wants_grad(ai)) {
        ai->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) ai->grad[i] += oi->grad[i];
      }
      if (wants_grad(bi)) {
        bi->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) bi->grad[i] -= oi->grad[i];
      }
    };
  }
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  RLCCD_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr(), b.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = ai->value[i] * bi->value[i];
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, oi]() {
      if (wants_grad(ai)) {
        ai->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) {
          ai->grad[i] += oi->grad[i] * bi->value[i];
        }
      }
      if (wants_grad(bi)) {
        bi->ensure_grad();
        for (std::size_t i = 0; i < oi->size(); ++i) {
          bi->grad[i] += oi->grad[i] * ai->value[i];
        }
      }
    };
  }
  return out;
}

Tensor add_rowvec(const Tensor& a, const Tensor& row) {
  RLCCD_EXPECTS(row.rows() == 1 && row.cols() == a.cols());
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr(), row.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* ri = row.ptr().get();
  TensorImpl* oi = out.ptr().get();
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      oi->value[i * n + j] = ai->value[i * n + j] + ri->value[j];
    }
  }
  if (oi->requires_grad) {
    const std::size_t m = a.rows();
    oi->backward_fn = [ai, ri, oi, m, n]() {
      if (wants_grad(ai)) {
        ai->ensure_grad();
        for (std::size_t i = 0; i < m * n; ++i) ai->grad[i] += oi->grad[i];
      }
      if (wants_grad(ri)) {
        ri->ensure_grad();
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            ri->grad[j] += oi->grad[i * n + j];
          }
        }
      }
    };
  }
  return out;
}

Tensor affine(const Tensor& a, float alpha, float beta) {
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = alpha * ai->value[i] + beta;
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi, alpha]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      for (std::size_t i = 0; i < oi->size(); ++i) {
        ai->grad[i] += alpha * oi->grad[i];
      }
    };
  }
  return out;
}

namespace {

template <class Fwd, class Dfn>
Tensor unary_op(const Tensor& a, Fwd fwd, Dfn dfn) {
  Tensor out = make_result(a.rows(), a.cols(), {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < oi->size(); ++i) {
    oi->value[i] = fwd(ai->value[i]);
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi, dfn]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      for (std::size_t i = 0; i < oi->size(); ++i) {
        // dfn receives (input, output) so e.g. sigmoid can reuse y.
        ai->grad[i] += oi->grad[i] * dfn(ai->value[i], oi->value[i]);
      }
    };
  }
  return out;
}

float sigmoid_of(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, [](float x) { return sigmoid_of(x); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor gated_sigmoid(const Tensor& proj, const Tensor& agg,
                     const Tensor& gamma, const Tensor& one_minus,
                     const OutRows& rows) {
  RLCCD_EXPECTS(proj.rows() == agg.rows() && proj.cols() == agg.cols());
  RLCCD_EXPECTS(gamma.size() == 1 && one_minus.size() == 1);
  const std::size_t m = proj.rows(), n = proj.cols();
  // proj before agg, so the backward's topological order still runs agg's
  // producers before proj's: the layer input's gradient takes the
  // neighbour sum's terms before the projection's, as it did for the chain.
  Tensor out = make_output(
      m, n, {proj.ptr(), agg.ptr(), gamma.ptr(), one_minus.ptr()}, rows);
  TensorImpl* pi = proj.ptr().get();
  TensorImpl* ai = agg.ptr().get();
  TensorImpl* gi = gamma.ptr().get();
  TensorImpl* oi = one_minus.ptr().get();
  TensorImpl* hi = out.ptr().get();
  const float g = gi->value[0], om = oi->value[0];
  for_each_out_row(rows, m, [&](std::size_t r) {
    for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
      const float self = g * pi->value[i];
      const float scaled = om * ai->value[i];
      hi->value[i] = sigmoid_of(self + scaled);
    }
  });
  if (hi->requires_grad) {
    hi->backward_fn = [pi, ai, gi, oi, hi, m, n,
                       live = checked_live(rows, m)]() {
      const bool to_proj = wants_grad(pi), to_agg = wants_grad(ai);
      const bool to_gamma = wants_grad(gi), to_one_minus = wants_grad(oi);
      for (TensorImpl* t : {pi, ai, gi, oi}) {
        if (wants_grad(t)) t->ensure_grad();
      }
      const float g = gi->value[0], om = oi->value[0];
      // Two serial sums, one per scalar, each in ascending element order.
      float acc_gamma = 0.0f, acc_one_minus = 0.0f;
      for_each_row(live_subset(live, m), m, [&](std::size_t r) {
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
          const float y = hi->value[i];
          // The gradient the chain's pre-activation node held: a fresh +0
          // plus the sigmoid's term, so never -0.
          const float d = 0.0f + hi->grad[i] * (y * (1.0f - y));
          if (to_proj) pi->grad[i] += g * d;
          if (to_agg) ai->grad[i] += om * d;
          acc_gamma += pi->value[i] * d;
          acc_one_minus += ai->value[i] * d;
        }
      });
      if (to_gamma) gi->grad[0] += acc_gamma;
      if (to_one_minus) oi->grad[0] += acc_one_minus;
    };
  }
  return out;
}

Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor sum(const Tensor& a) {
  Tensor out = make_result(1, 1, {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  float acc = 0.0f;
  for (float v : ai->value) acc += v;
  oi->value[0] = acc;
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      const float g = oi->grad[0];
      for (std::size_t i = 0; i < ai->size(); ++i) ai->grad[i] += g;
    };
  }
  return out;
}

Tensor mean(const Tensor& a) {
  RLCCD_EXPECTS(a.size() > 0);
  return affine(sum(a), 1.0f / static_cast<float>(a.size()), 0.0f);
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  RLCCD_EXPECTS(a.rows() == b.rows());
  const std::size_t m = a.rows(), p = a.cols(), q = b.cols();
  Tensor out = make_result(m, p + q, {a.ptr(), b.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* bi = b.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < m; ++i) {
    std::copy_n(ai->value.data() + i * p, p, oi->value.data() + i * (p + q));
    std::copy_n(bi->value.data() + i * q, q,
                oi->value.data() + i * (p + q) + p);
  }
  if (oi->requires_grad) {
    oi->backward_fn = [ai, bi, oi, m, p, q]() {
      for (std::size_t i = 0; i < m; ++i) {
        const float* grow = oi->grad.data() + i * (p + q);
        if (wants_grad(ai)) {
          ai->ensure_grad();
          float* ag = ai->grad.data() + i * p;
          for (std::size_t j = 0; j < p; ++j) ag[j] += grow[j];
        }
        if (wants_grad(bi)) {
          bi->ensure_grad();
          float* bg = bi->grad.data() + i * q;
          for (std::size_t j = 0; j < q; ++j) bg[j] += grow[p + j];
        }
      }
    };
  }
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<std::size_t>& idx,
                   const OutRows& rows) {
  RLCCD_EXPECTS(rows.prior == nullptr);
  const std::size_t n = a.cols();
  Tensor out = make_result(idx.size(), n, {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    RLCCD_EXPECTS(idx[i] < a.rows());
    std::copy_n(ai->value.data() + idx[i] * n, n, oi->value.data() + i * n);
  }
  if (oi->requires_grad) {
    const std::size_t m = idx.size();
    oi->backward_fn = [ai, oi, idx, n, m, live = checked_live(rows, m)]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      for_each_row(live_subset(live, m), m, [&](std::size_t i) {
        float* ag = ai->grad.data() + idx[i] * n;
        const float* g = oi->grad.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) ag[j] += g[j];
      });
    };
  }
  return out;
}

Tensor pick(const Tensor& a, std::size_t r, std::size_t c) {
  RLCCD_EXPECTS(r < a.rows() && c < a.cols());
  Tensor out = make_result(1, 1, {a.ptr()});
  TensorImpl* ai = a.ptr().get();
  TensorImpl* oi = out.ptr().get();
  const std::size_t flat = r * a.cols() + c;
  oi->value[0] = ai->value[flat];
  if (oi->requires_grad) {
    oi->backward_fn = [ai, oi, flat]() {
      if (!wants_grad(ai)) return;
      ai->ensure_grad();
      ai->grad[flat] += oi->grad[0];
    };
  }
  return out;
}

Tensor masked_log_softmax(const Tensor& scores,
                          const std::vector<char>& valid) {
  RLCCD_EXPECTS(scores.cols() == 1);
  RLCCD_EXPECTS(valid.size() == scores.rows());
  const std::size_t n = scores.rows();
  Tensor out = make_result(n, 1, {scores.ptr()});
  TensorImpl* si = scores.ptr().get();
  TensorImpl* oi = out.ptr().get();

  constexpr float kNegInf = -1e30f;
  float max_v = kNegInf;
  bool any_valid = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i]) {
      any_valid = true;
      max_v = std::max(max_v, si->value[i]);
    }
  }
  RLCCD_EXPECTS(any_valid);
  double z = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i]) z += std::exp(static_cast<double>(si->value[i] - max_v));
  }
  const float log_z = max_v + static_cast<float>(std::log(z));
  for (std::size_t i = 0; i < n; ++i) {
    oi->value[i] = valid[i] ? si->value[i] - log_z : kNegInf;
  }
  if (oi->requires_grad) {
    oi->backward_fn = [si, oi, valid, n]() {
      if (!wants_grad(si)) return;
      si->ensure_grad();
      // d log_softmax_i / d s_j = delta_ij - softmax_j (valid entries only).
      float grad_total = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        if (valid[i]) grad_total += oi->grad[i];
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (!valid[j]) continue;
        const float p_j = std::exp(oi->value[j]);
        si->grad[j] += oi->grad[j] - p_j * grad_total;
      }
    };
  }
  return out;
}

Tensor spmm(const SparseOperand& sp, const Tensor& x, const OutRows& rows) {
  RLCCD_EXPECTS(sp.matrix.cols == x.rows());
  const std::size_t n = x.cols();
  Tensor out = make_output(sp.matrix.rows, n, {x.ptr()}, rows);
  TensorImpl* xi = x.ptr().get();
  TensorImpl* oi = out.ptr().get();
  const SparseMatrix& a = sp.matrix;
  for_each_out_row(rows, a.rows, [&](std::size_t r) {
    // Sums start from 0, as in a fresh buffer; a taken-over row holds the
    // prior's value.
    float* orow = oi->value.data() + r * n;
    std::fill_n(orow, n, 0.0f);
    for (std::uint32_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const float v = a.values[k];
      const float* xrow = xi->value.data() + a.col_idx[k] * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += v * xrow[j];
    }
  });
  if (oi->requires_grad) {
    const SparseOperand* op = &sp;
    const std::size_t m = a.rows;
    oi->backward_fn = [xi, oi, op, m, n, live = checked_live(rows, m)]() {
      if (!wants_grad(xi)) return;
      xi->ensure_grad();
      const RowList* visit = live_subset(live, m);
      if (visit == nullptr) {
        // dX = A^T * dO
        const SparseMatrix& at = op->matrix_t;
        for (std::size_t r = 0; r < at.rows; ++r) {
          float* xg = xi->grad.data() + r * n;
          for (std::uint32_t k = at.row_ptr[r]; k < at.row_ptr[r + 1]; ++k) {
            const float v = at.values[k];
            const float* grow = oi->grad.data() + at.col_idx[k] * n;
            for (std::size_t j = 0; j < n; ++j) xg[j] += v * grow[j];
          }
        }
        return;
      }
      // The live rows' terms of A^T * dO, scattered from A's rows in
      // ascending order. transposed() is a stable counting sort, so each dX
      // row takes its terms in the order of its row of A^T.
      const SparseMatrix& a = op->matrix;
      for (std::uint32_t r : *visit) {
        const float* grow = oi->grad.data() + r * n;
        for (std::uint32_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
          const float v = a.values[k];
          float* xg = xi->grad.data() + a.col_idx[k] * n;
          for (std::size_t j = 0; j < n; ++j) xg[j] += v * grow[j];
        }
      }
    };
  }
  return out;
}

}  // namespace rlccd::ops
