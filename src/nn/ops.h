// Differentiable operations over Tensor (see nn/tensor.h). All ops validate
// shapes with contracts and register exact backward closures; gradients are
// verified against finite differences in the test suite. matmul and linear
// run register-tiled kernels whose tile the output's width and the
// target's vector registers choose; their results equal the textbook loops
// bit for bit whatever the tile (DESIGN.md Sec. 5, "Dense kernels").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/sparse.h"
#include "nn/tensor.h"

namespace rlccd::ops {

// Which output rows an op computes, and which rows its backward visits.
// linear, add, gated_sigmoid and spmm take one; gather_rows takes only
// `live`. The default computes every row into fresh storage and backwards
// every row.
//
// With `prior` set, the output takes over prior's value storage instead and
// recomputes only the rows in `dirty`; the other rows keep prior's values.
// `prior` is the same op's output one step earlier, of the same shape, and
// its graph must be spent: no backward will run through it and nothing
// will read its values again. The node, its parents and its backward are
// the full op's either way; each row is computed as the full op computes
// it, so a row whose inputs did not change keeps the full op's value bit
// for bit (the EP-GNN incremental re-encode, DESIGN.md Sec. 5).
//
// With `live` set, the backward reads and writes only the output rows it
// lists, ascending and distinct: the rows whose gradient can be nonzero.
// It is exact when every other row's gradient is +0 or -0 and every value
// the backward would multiply by it is finite: each skipped term is then
// +0 or -0, and adding one to an accumulator that is not -0 changes
// nothing. Grad buffers start at +0, and a round-to-nearest sum is -0 only
// when both operands are, so no accumulator is -0 during a backward
// (DESIGN.md Sec. 5, "Live-row backward"). The node keeps the list and
// reads it when its backward runs.
using RowList = std::vector<std::uint32_t>;
struct OutRows {
  Tensor* prior = nullptr;
  const RowList* dirty = nullptr;  // with prior
  std::shared_ptr<const RowList> live;
};

// Dense linear algebra.
Tensor matmul(const Tensor& a, const Tensor& b);           // [m,k]x[k,n]
// Fused x*w + b ([m,k]x[k,n] + [1,n]): bit-identical to
// add_rowvec(matmul(x, w), b) in value and in all three gradients, without
// the [m,n] intermediate.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b,
              const OutRows& rows = {});
Tensor add(const Tensor& a, const Tensor& b,
           const OutRows& rows = {});                      // elementwise
Tensor sub(const Tensor& a, const Tensor& b);              // elementwise
Tensor mul(const Tensor& a, const Tensor& b);              // elementwise
Tensor add_rowvec(const Tensor& a, const Tensor& row);     // [m,n] + [1,n]
Tensor affine(const Tensor& a, float alpha, float beta);   // alpha*a + beta

// Nonlinearities.
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor relu(const Tensor& a);
// EP-GNN Eq. 2's gate as one node: sigmoid(gamma * proj + one_minus * agg)
// elementwise, with gamma and one_minus 1x1. Value and all four gradients
// are bit-identical to sigmoid(add(proj * gamma, agg * one_minus)) built
// from scalar-scale nodes: the same float operations per element, and each
// scalar's gradient one serial sum over the visited elements in ascending
// order, the two sums kept apart.
Tensor gated_sigmoid(const Tensor& proj, const Tensor& agg,
                     const Tensor& gamma, const Tensor& one_minus,
                     const OutRows& rows = {});

// Reductions / reshaping.
Tensor sum(const Tensor& a);                       // -> 1x1
Tensor mean(const Tensor& a);                      // -> 1x1
Tensor concat_cols(const Tensor& a, const Tensor& b);  // [m,p]|[m,q] -> [m,p+q]
// Row gather with scatter-add backward: out[i,:] = a[idx[i],:]. `rows`
// sets only `live`; every row is computed.
Tensor gather_rows(const Tensor& a, const std::vector<std::size_t>& idx,
                   const OutRows& rows = {});
Tensor pick(const Tensor& a, std::size_t r, std::size_t c);  // -> 1x1

// Masked log-softmax over a column vector [n,1]: invalid entries get
// log-probability -inf (represented as a large negative constant with zero
// gradient) and do not contribute to the normalizer (paper Eq. 5/6).
Tensor masked_log_softmax(const Tensor& scores,
                          const std::vector<char>& valid);

// Sparse x dense: out = sp.matrix * x; backward uses sp.matrix_t, or with
// live rows scatters from those rows of sp.matrix. The sparse values are
// constants (graph structure), only x carries gradient.
Tensor spmm(const SparseOperand& sp, const Tensor& x,
            const OutRows& rows = {});

}  // namespace rlccd::ops
