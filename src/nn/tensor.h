// Minimal reverse-mode autograd tensor library.
//
// Tensors are dense row-major float matrices (vectors are 1xN or Nx1). A
// Tensor is a cheap handle onto a shared node; operations (nn/ops.h) build a
// dynamic computation graph, and Tensor::backward() runs reverse-mode
// differentiation from a scalar. This is deliberately small — just the ops
// EP-GNN, the LSTM encoder, the attention decoder and REINFORCE need — but
// exact: every op has an analytic gradient validated against finite
// differences in tests/nn/gradcheck_test.cpp.
//
// Value and grad storage is recycled through a bounded per-thread free list
// (DESIGN.md §5, "Tensor storage"): a destroyed tensor's buffers serve the
// next same-size allocation on the destroying thread, and every recycled
// buffer is filled or copied before use, so results never depend on it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/contracts.h"

namespace rlccd {

struct TensorImpl {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> value;
  std::vector<float> grad;  // allocated iff requires_grad
  bool requires_grad = false;

  // Parents keep the upstream graph alive; backward_fn pushes this node's
  // grad into the parents' grads.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward_fn;

  // A node is identified by its address (backward_fn captures it), so it
  // is never copied.
  TensorImpl() = default;
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;
  // Hands value and grad storage to this thread's free list.
  ~TensorImpl();

  [[nodiscard]] std::size_t size() const { return rows * cols; }
  // Allocates a zero grad the size of value unless one is already there.
  void ensure_grad();
};

class Tensor {
 public:
  Tensor() = default;

  static Tensor zeros(std::size_t rows, std::size_t cols,
                      bool requires_grad = false);
  static Tensor full(std::size_t rows, std::size_t cols, float fill,
                     bool requires_grad = false);
  static Tensor from_data(std::vector<float> data, std::size_t rows,
                          std::size_t cols, bool requires_grad = false);
  static Tensor scalar(float v, bool requires_grad = false) {
    return from_data({v}, 1, 1, requires_grad);
  }

  [[nodiscard]] bool defined() const { return impl_ != nullptr; }
  [[nodiscard]] std::size_t rows() const { return impl().rows; }
  [[nodiscard]] std::size_t cols() const { return impl().cols; }
  [[nodiscard]] std::size_t size() const { return impl().size(); }

  [[nodiscard]] float* data() { return impl().value.data(); }
  [[nodiscard]] const float* data() const { return impl().value.data(); }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    RLCCD_EXPECTS(r < rows() && c < cols());
    return impl().value[r * cols() + c];
  }
  void set(std::size_t r, std::size_t c, float v) {
    RLCCD_EXPECTS(r < rows() && c < cols());
    impl().value[r * cols() + c] = v;
  }
  [[nodiscard]] float item() const {
    RLCCD_EXPECTS(size() == 1);
    return impl().value[0];
  }

  [[nodiscard]] bool requires_grad() const { return impl().requires_grad; }
  [[nodiscard]] const std::vector<float>& grad() const {
    RLCCD_EXPECTS(impl().requires_grad);
    const_cast<TensorImpl&>(impl()).ensure_grad();
    return impl().grad;
  }
  [[nodiscard]] std::vector<float>& grad_mut() {
    RLCCD_EXPECTS(impl().requires_grad);
    impl().ensure_grad();
    return impl().grad;
  }
  void zero_grad();

  // Reverse-mode AD from this scalar (1x1). Each reachable requires-grad
  // node's grad is *accumulated* (callers zero parameter grads between
  // backward passes).
  void backward() const;

  // Detached copy of the values (no graph).
  [[nodiscard]] Tensor detach_copy() const;

  [[nodiscard]] TensorImpl& impl() {
    RLCCD_EXPECTS(impl_ != nullptr);
    return *impl_;
  }
  [[nodiscard]] const TensorImpl& impl() const {
    RLCCD_EXPECTS(impl_ != nullptr);
    return *impl_;
  }
  [[nodiscard]] const std::shared_ptr<TensorImpl>& ptr() const { return impl_; }

  // Internal: wrap an impl (used by ops).
  static Tensor wrap(std::shared_ptr<TensorImpl> impl) {
    Tensor t;
    t.impl_ = std::move(impl);
    return t;
  }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// Creates a result node whose requires_grad is the OR of the parents'.
Tensor make_result(std::size_t rows, std::size_t cols,
                   std::vector<std::shared_ptr<TensorImpl>> parents);
// The same node over existing storage of rows * cols floats instead of a
// fresh zero-filled buffer (ops::OutRows takes over a spent node's values).
Tensor make_result(std::size_t rows, std::size_t cols,
                   std::vector<std::shared_ptr<TensorImpl>> parents,
                   std::vector<float> value);

}  // namespace rlccd
