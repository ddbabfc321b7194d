#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "nn/ops.h"
#include "nn/sparse.h"

namespace rlccd {
namespace {

constexpr std::size_t kRows = 37;
constexpr std::size_t kCols = 11;

// Destroys a kRows x kCols tensor whose value and grad hold non-zero
// values, so this thread's next two allocations of that size reuse its
// storage. Returns the two buffers' addresses (only compared, never read).
std::set<const float*> drop_dirty_storage() {
  Tensor t = Tensor::full(kRows, kCols, 3.25f, /*requires_grad=*/true);
  std::fill(t.grad_mut().begin(), t.grad_mut().end(), -2.5f);
  return {t.data(), t.grad().data()};
}

void expect_all(const float* p, std::size_t n, float v) {
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(p[i], v) << "at " << i;
}

TEST(Tensor, ConstructionAndAccess) {
  Tensor t = Tensor::from_data({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), 6.0f);
  t.set(1, 2, -1.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), -1.0f);
}

TEST(Tensor, ZerosAndFull) {
  Tensor z = Tensor::zeros(3, 2);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_FLOAT_EQ(z.data()[i], 0.0f);
  Tensor f = Tensor::full(2, 2, 1.5f);
  for (std::size_t i = 0; i < f.size(); ++i) EXPECT_FLOAT_EQ(f.data()[i], 1.5f);
}

TEST(Tensor, ScalarItem) {
  Tensor s = Tensor::scalar(2.5f);
  EXPECT_FLOAT_EQ(s.item(), 2.5f);
}

TEST(Tensor, HandleSemanticsShareStorage) {
  Tensor a = Tensor::zeros(1, 1);
  Tensor b = a;
  b.set(0, 0, 3.0f);
  EXPECT_FLOAT_EQ(a.item(), 3.0f);
}

TEST(Tensor, DetachCopyDropsGraphAndIndependentStorage) {
  Tensor a = Tensor::scalar(1.0f, /*requires_grad=*/true);
  Tensor b = ops::affine(a, 2.0f, 0.0f);
  Tensor d = b.detach_copy();
  EXPECT_FALSE(d.requires_grad());
  d.set(0, 0, 99.0f);
  EXPECT_FLOAT_EQ(b.item(), 2.0f);
}

TEST(Tensor, BackwardAccumulatesThroughSharedSubexpression) {
  // y = x + x => dy/dx = 2.
  Tensor x = Tensor::scalar(3.0f, true);
  Tensor y = ops::add(x, x);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Tensor, BackwardThroughDiamondGraph) {
  // y = (x*x) + (x*x) reusing the same intermediate: dy/dx = 2*2x = 4x.
  Tensor x = Tensor::scalar(2.0f, true);
  Tensor sq = ops::mul(x, x);
  Tensor y = ops::add(sq, sq);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
}

TEST(Tensor, ZeroGradClearsAccumulation) {
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y = ops::affine(x, 3.0f, 0.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Tensor, SecondBackwardAccumulates) {
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y1 = ops::affine(x, 2.0f, 0.0f);
  y1.backward();
  Tensor y2 = ops::affine(x, 5.0f, 0.0f);
  y2.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
}

TEST(Tensor, ConstantsGetNoGrad) {
  Tensor c = Tensor::scalar(2.0f, false);
  Tensor x = Tensor::scalar(3.0f, true);
  Tensor y = ops::mul(c, x);
  EXPECT_TRUE(y.requires_grad());
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FALSE(c.requires_grad());
}

// Every allocation that can be served from the free list must overwrite
// the recycled contents: each check first destroys a same-size tensor full
// of non-zero values, asserts that the new tensor got one of its buffers,
// then reads the new tensor's contents.
TEST(TensorStorage, RecycledStorageReadsExactlyItsExpectedContents) {
  const std::size_t n = kRows * kCols;
  {
    const std::set<const float*> dirty = drop_dirty_storage();
    Tensor z = Tensor::zeros(kRows, kCols);
    ASSERT_EQ(dirty.count(z.data()), 1u);
    expect_all(z.data(), n, 0.0f);
  }
  {
    // spmm accumulates into its result, so rows without an entry read
    // whatever make_result left there.
    std::vector<float> ones(n, 1.0f);
    const Tensor x = Tensor::from_data(ones, kRows, kCols);
    const SparseOperand sp(SparseMatrix::from_triplets(kRows, kRows, {{0, 0, 2.0f}}));
    const std::set<const float*> dirty = drop_dirty_storage();
    Tensor y = ops::spmm(sp, x);
    ASSERT_EQ(dirty.count(y.data()), 1u);
    expect_all(y.data(), kCols, 2.0f);
    expect_all(y.data() + kCols, n - kCols, 0.0f);
  }
  {
    std::vector<float> ones(n, 1.0f);
    const std::set<const float*> dirty = drop_dirty_storage();
    Tensor x = Tensor::from_data(ones, kRows, kCols, /*requires_grad=*/true);
    ASSERT_EQ(dirty.count(x.grad().data()), 1u);
    expect_all(x.grad().data(), n, 0.0f);
    ops::sum(x).backward();  // accumulates onto the fresh grad
    expect_all(x.grad().data(), n, 1.0f);
  }
  {
    const std::set<const float*> dirty = drop_dirty_storage();
    Tensor f = Tensor::full(kRows, kCols, 1.5f);
    ASSERT_EQ(dirty.count(f.data()), 1u);
    expect_all(f.data(), n, 1.5f);
  }
  {
    std::vector<float> iota(n);
    for (std::size_t i = 0; i < n; ++i) iota[i] = static_cast<float>(i) - 7.0f;
    const Tensor src = Tensor::from_data(iota, kRows, kCols);
    const std::set<const float*> dirty = drop_dirty_storage();
    Tensor copy = src.detach_copy();
    ASSERT_EQ(dirty.count(copy.data()), 1u);
    EXPECT_TRUE(std::equal(iota.begin(), iota.end(), copy.data()));
  }
}

// A thread_local constructed before the thread's first tensor is destroyed
// after the thread's free list; its storage then goes straight to the
// allocator.
TEST(TensorStorage, ThreadLocalTensorOutlivingTheFreeListIsFreedSafely) {
  std::thread([] {
    thread_local Tensor keep;  // empty: does not touch the free list
    { Tensor idle = Tensor::full(kRows, kCols, 1.0f, /*requires_grad=*/true); }
    keep = Tensor::full(kRows, kCols, 4.0f, /*requires_grad=*/true);
  }).join();
}

TEST(TensorStorage, TensorMadeOnOneThreadCanBeDestroyedOnAnother) {
  Tensor made_there;
  std::thread([&] {
    made_there = Tensor::full(kRows, kCols, 2.0f, /*requires_grad=*/true);
  }).join();  // the maker's free list is gone; the tensor is not
  expect_all(made_there.data(), kRows * kCols, 2.0f);
  made_there = Tensor();  // its storage joins this thread's list

  Tensor made_here = Tensor::full(kRows, kCols, 5.0f, /*requires_grad=*/true);
  std::thread([t = std::move(made_here)]() mutable {
    expect_all(t.data(), kRows * kCols, 5.0f);
    t = Tensor();  // destroyed on the other thread
    Tensor z = Tensor::zeros(kRows, kCols);
    expect_all(z.data(), kRows * kCols, 0.0f);
  }).join();
  Tensor z = Tensor::zeros(kRows, kCols);
  expect_all(z.data(), kRows * kCols, 0.0f);
}

}  // namespace
}  // namespace rlccd
