// Finite-difference gradient checks for every differentiable op, run as a
// parameterized sweep over shapes/seeds. A scalar loss L(inputs) is built
// per case; analytic dL/dx from backward() must match (L(x+h)-L(x-h))/2h.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.h"
#include "nn/modules.h"
#include "nn/ops.h"

namespace rlccd {
namespace {

Tensor random_tensor(std::size_t r, std::size_t c, Rng& rng,
                     bool requires_grad = true) {
  std::vector<float> data(r * c);
  for (float& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return Tensor::from_data(std::move(data), r, c, requires_grad);
}

// Checks dL/dx for every element of every input against central differences.
void gradcheck(const std::vector<Tensor>& inputs,
               const std::function<Tensor()>& loss_fn, double tol = 2e-2) {
  Tensor loss = loss_fn();
  ASSERT_EQ(loss.size(), 1u);
  for (const Tensor& in : inputs) {
    const_cast<Tensor&>(in).zero_grad();
  }
  loss.backward();

  const float h = 1e-3f;
  for (Tensor& in : const_cast<std::vector<Tensor>&>(inputs)) {
    std::vector<float> analytic = in.grad();
    for (std::size_t i = 0; i < in.size(); ++i) {
      float orig = in.data()[i];
      in.data()[i] = orig + h;
      float up = loss_fn().item();
      in.data()[i] = orig - h;
      float down = loss_fn().item();
      in.data()[i] = orig;
      double numeric = (static_cast<double>(up) - down) / (2.0 * h);
      double scale = std::max({1.0, std::abs(numeric),
                               std::abs(static_cast<double>(analytic[i]))});
      ASSERT_NEAR(analytic[i], numeric, tol * scale)
          << "element " << i << " of a " << in.rows() << "x" << in.cols()
          << " input";
    }
  }
}

struct Shape {
  std::size_t m, k, n;
  std::uint64_t seed;
};

class GradCheck : public ::testing::TestWithParam<Shape> {};

TEST_P(GradCheck, Matmul) {
  Rng rng(GetParam().seed);
  Tensor a = random_tensor(GetParam().m, GetParam().k, rng);
  Tensor b = random_tensor(GetParam().k, GetParam().n, rng);
  gradcheck({a, b}, [&] { return ops::sum(ops::matmul(a, b)); });
}

TEST_P(GradCheck, Linear) {
  Rng rng(GetParam().seed + 11);
  Tensor x = random_tensor(GetParam().m, GetParam().k, rng);
  Tensor w = random_tensor(GetParam().k, GetParam().n, rng);
  Tensor b = random_tensor(1, GetParam().n, rng);
  gradcheck({x, w, b}, [&] { return ops::sum(ops::linear(x, w, b)); });
}

TEST_P(GradCheck, AddSubMulChain) {
  Rng rng(GetParam().seed + 1);
  Tensor a = random_tensor(GetParam().m, GetParam().n, rng);
  Tensor b = random_tensor(GetParam().m, GetParam().n, rng);
  gradcheck({a, b}, [&] {
    return ops::sum(ops::mul(ops::add(a, b), ops::sub(a, b)));
  });
}

TEST_P(GradCheck, AddRowvec) {
  Rng rng(GetParam().seed + 2);
  Tensor a = random_tensor(GetParam().m, GetParam().n, rng);
  Tensor r = random_tensor(1, GetParam().n, rng);
  gradcheck({a, r}, [&] { return ops::sum(ops::add_rowvec(a, r)); });
}

TEST_P(GradCheck, SigmoidTanhRelu) {
  Rng rng(GetParam().seed + 3);
  Tensor x = random_tensor(GetParam().m, GetParam().n, rng);
  gradcheck({x}, [&] { return ops::sum(ops::sigmoid(x)); });
  gradcheck({x}, [&] { return ops::sum(ops::tanh_op(x)); });
  gradcheck({x}, [&] { return ops::mean(ops::relu(ops::affine(x, 1.0f, 0.3f))); });
}

TEST_P(GradCheck, GatedSigmoid) {
  Rng rng(GetParam().seed + 4);
  Tensor proj = random_tensor(GetParam().m, GetParam().n, rng);
  Tensor agg = random_tensor(GetParam().m, GetParam().n, rng);
  Tensor gamma = random_tensor(1, 1, rng);
  Tensor one_minus = random_tensor(1, 1, rng);
  gradcheck({proj, agg, gamma, one_minus}, [&] {
    return ops::sum(ops::gated_sigmoid(proj, agg, gamma, one_minus));
  });
}

TEST_P(GradCheck, GatherAndConcat) {
  Rng rng(GetParam().seed + 5);
  Tensor a = random_tensor(GetParam().m + 2, GetParam().n, rng);
  Tensor b = random_tensor(1, GetParam().n, rng);
  gradcheck({a, b}, [&] {
    Tensor g = ops::gather_rows(a, {0, GetParam().m + 1, 0});
    Tensor first = ops::gather_rows(g, {0});
    return ops::sum(ops::concat_cols(first, b));
  });
}

TEST_P(GradCheck, MaskedLogSoftmaxPick) {
  Rng rng(GetParam().seed + 6);
  const std::size_t n = GetParam().m + 3;
  Tensor scores = random_tensor(n, 1, rng);
  std::vector<char> valid(n, 1);
  valid[1] = 0;  // one masked entry
  gradcheck({scores}, [&] {
    Tensor lp = ops::masked_log_softmax(scores, valid);
    return ops::pick(lp, 0, 0);
  });
}

TEST_P(GradCheck, Spmm) {
  Rng rng(GetParam().seed + 7);
  const std::size_t n = GetParam().m + 2;
  std::vector<SparseMatrix::Triplet> triplets;
  for (std::size_t r = 0; r < n; ++r) {
    for (int t = 0; t < 2; ++t) {
      triplets.push_back({static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(rng.uniform_int(n)),
                          static_cast<float>(rng.uniform(0.2, 1.0))});
    }
  }
  SparseOperand sp(SparseMatrix::from_triplets(n, n, std::move(triplets)));
  Tensor x = random_tensor(n, GetParam().n, rng);
  gradcheck({x}, [&] { return ops::sum(ops::spmm(sp, x)); });
}

TEST_P(GradCheck, LinearLayer) {
  Rng rng(GetParam().seed + 8);
  Linear lin(GetParam().k, GetParam().n, rng);
  Tensor x = random_tensor(GetParam().m, GetParam().k, rng);
  std::vector<Tensor> inputs = lin.parameters();
  inputs.push_back(x);
  gradcheck(inputs, [&] { return ops::mean(ops::tanh_op(lin.forward(x))); });
}

TEST_P(GradCheck, LstmCellOneStep) {
  Rng rng(GetParam().seed + 9);
  LSTMCell cell(3, 4, rng);
  Tensor x = random_tensor(1, 3, rng);
  std::vector<Tensor> inputs = cell.parameters();
  inputs.push_back(x);
  gradcheck(inputs, [&] {
    LSTMCell::State s = cell.forward(x, cell.zero_state());
    return ops::sum(s.h);
  });
}

TEST_P(GradCheck, LstmCellTwoStepsBptt) {
  Rng rng(GetParam().seed + 10);
  LSTMCell cell(2, 3, rng);
  Tensor x1 = random_tensor(1, 2, rng);
  Tensor x2 = random_tensor(1, 2, rng);
  std::vector<Tensor> inputs = cell.parameters();
  inputs.push_back(x1);
  inputs.push_back(x2);
  gradcheck(inputs, [&] {
    LSTMCell::State s = cell.forward(x1, cell.zero_state());
    s = cell.forward(x2, s);
    return ops::sum(ops::mul(s.h, s.h));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GradCheck,
    ::testing::Values(Shape{2, 3, 2, 100}, Shape{1, 1, 1, 200},
                      Shape{4, 2, 5, 300}, Shape{3, 4, 3, 400}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "m" + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace rlccd
