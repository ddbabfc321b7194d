#include "nn/tensor.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace rlccd {

namespace {

// Set by ~StorageList at thread exit. Trivially destructible, so thread_local
// and static destructors that run after the list still read it; storage they
// free then goes straight to the allocator.
thread_local bool tl_storage_list_gone = false;

// This thread's idle tensor buffers, keyed by exact capacity in floats.
// A stepwise rollout frees its whole autograd graph after every selection
// step and rebuilds one of the same shapes at the next; without the list,
// glibc trims that memory back to the kernel and faults it in again each
// step. An idle buffer is ASan-poisoned (a no-op in other builds), so a read
// through a stale pointer into it still reports.
class StorageList {
 public:
  // Idle bytes kept per thread; a buffer that would exceed it is freed.
  static constexpr std::size_t kMaxBytes = std::size_t{64} << 20;

  StorageList() = default;
  StorageList(const StorageList&) = delete;
  StorageList& operator=(const StorageList&) = delete;
  ~StorageList() { tl_storage_list_gone = true; }

  // An idle buffer of capacity exactly `n` (size 0), or an empty vector.
  std::vector<float> take(std::size_t n) {
    auto it = bins_.find(n);
    if (it == bins_.end() || it->second.empty()) return {};
    std::vector<float> buf = std::move(it->second.back());
    it->second.pop_back();
    bytes_ -= n * sizeof(float);
    ASAN_UNPOISON_MEMORY_REGION(buf.data(), n * sizeof(float));
    return buf;
  }

  // Keeps `buf`'s storage (leaving `buf` empty) unless that would exceed
  // the bound.
  void give(std::vector<float>& buf) {
    const std::size_t floats = buf.capacity();
    const std::size_t bytes = floats * sizeof(float);
    if (floats == 0 || bytes_ + bytes > kMaxBytes) return;
    buf.clear();
    ASAN_POISON_MEMORY_REGION(buf.data(), bytes);
    bins_[floats].push_back(std::move(buf));
    bytes_ += bytes;
  }

 private:
  std::unordered_map<std::size_t, std::vector<std::vector<float>>> bins_;
  std::size_t bytes_ = 0;
};

StorageList* this_thread_storage() {
  if (tl_storage_list_gone) return nullptr;
  thread_local StorageList list;
  return &list;
}

// Idle storage of capacity `n` from this thread's list, or an empty vector.
// Callers fill or copy every element before use.
std::vector<float> recycled(std::size_t n) {
  StorageList* list = this_thread_storage();
  return list != nullptr ? list->take(n) : std::vector<float>();
}

std::vector<float> filled(std::size_t n, float fill) {
  std::vector<float> buf = recycled(n);
  buf.assign(n, fill);
  return buf;
}

}  // namespace

TensorImpl::~TensorImpl() {
  if (StorageList* list = this_thread_storage()) {
    list->give(value);
    list->give(grad);
  }
}

void TensorImpl::ensure_grad() {
  if (grad.size() != value.size()) grad = filled(value.size(), 0.0f);
}

void Tensor::zero_grad() {
  if (!impl().requires_grad) return;
  impl().ensure_grad();
  std::fill(impl().grad.begin(), impl().grad.end(), 0.0f);
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols, bool requires_grad) {
  return full(rows, cols, 0.0f, requires_grad);
}

Tensor Tensor::full(std::size_t rows, std::size_t cols, float fill,
                    bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value = filled(rows * cols, fill);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->ensure_grad();
  return wrap(std::move(impl));
}

Tensor Tensor::from_data(std::vector<float> data, std::size_t rows,
                         std::size_t cols, bool requires_grad) {
  RLCCD_EXPECTS(data.size() == rows * cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value = std::move(data);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->ensure_grad();
  return wrap(std::move(impl));
}

Tensor Tensor::detach_copy() const {
  const std::vector<float>& src = impl().value;
  std::vector<float> copy = recycled(src.size());
  copy.assign(src.begin(), src.end());
  return from_data(std::move(copy), rows(), cols(), /*requires_grad=*/false);
}

Tensor make_result(std::size_t rows, std::size_t cols,
                   std::vector<std::shared_ptr<TensorImpl>> parents) {
  return make_result(rows, cols, std::move(parents), filled(rows * cols, 0.0f));
}

Tensor make_result(std::size_t rows, std::size_t cols,
                   std::vector<std::shared_ptr<TensorImpl>> parents,
                   std::vector<float> value) {
  RLCCD_EXPECTS(value.size() == rows * cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->value = std::move(value);
  for (const auto& p : parents) {
    if (p && p->requires_grad) {
      impl->requires_grad = true;
      break;
    }
  }
  impl->parents = std::move(parents);
  return Tensor::wrap(std::move(impl));
}

void Tensor::backward() const {
  RLCCD_EXPECTS(size() == 1);
  RLCCD_EXPECTS(impl().requires_grad);

  // Topological order over the requires-grad subgraph (iterative DFS).
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      TensorImpl* p = f.node->parents[f.next_parent++].get();
      if (p != nullptr && p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }

  impl_->ensure_grad();
  impl_->grad[0] += 1.0f;
  // order is post-order (leaves first); walk it backwards so each node runs
  // its backward_fn after all its consumers have contributed.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) node->backward_fn();
  }
}

}  // namespace rlccd
