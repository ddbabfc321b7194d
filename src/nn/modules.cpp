#include "nn/modules.h"

#include <cmath>

namespace rlccd {

void init_xavier(Tensor& t, Rng& rng) {
  const double bound =
      std::sqrt(6.0 / static_cast<double>(t.rows() + t.cols()));
  float* data = t.data();
  for (std::size_t i = 0; i < t.size(); ++i) {
    data[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
}

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng) {
  w_ = Tensor::zeros(in_features, out_features, /*requires_grad=*/true);
  b_ = Tensor::zeros(1, out_features, /*requires_grad=*/true);
  init_xavier(w_, rng);
}

Tensor Linear::forward(const Tensor& x) const {
  return ops::linear(x, w_, b_);
}

LSTMCell::LSTMCell(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : input_(input_size),
      hidden_(hidden_size),
      gate_i_(input_size + hidden_size, hidden_size, rng),
      gate_f_(input_size + hidden_size, hidden_size, rng),
      gate_o_(input_size + hidden_size, hidden_size, rng),
      gate_c_(input_size + hidden_size, hidden_size, rng) {}

LSTMCell::State LSTMCell::zero_state(std::size_t batch) const {
  return {Tensor::zeros(batch, hidden_), Tensor::zeros(batch, hidden_)};
}

LSTMCell::State LSTMCell::forward(const Tensor& x, const State& prev) const {
  RLCCD_EXPECTS(x.rows() >= 1 && x.cols() == input_);
  RLCCD_EXPECTS(prev.h.rows() == x.rows() && prev.c.rows() == x.rows());
  Tensor hx = ops::concat_cols(prev.h, x);  // [1, h+x]
  Tensor i = ops::sigmoid(gate_i_.forward(hx));
  Tensor f = ops::sigmoid(gate_f_.forward(hx));
  Tensor o = ops::sigmoid(gate_o_.forward(hx));
  Tensor c_tilde = ops::tanh_op(gate_c_.forward(hx));
  Tensor c = ops::add(ops::mul(f, prev.c), ops::mul(i, c_tilde));
  Tensor h = ops::mul(o, ops::tanh_op(c));
  return {h, c};
}

std::vector<Tensor> LSTMCell::parameters() const {
  std::vector<Tensor> params;
  for (const Linear* gate : {&gate_i_, &gate_f_, &gate_o_, &gate_c_}) {
    for (Tensor& t : gate->parameters()) params.push_back(t);
  }
  return params;
}

}  // namespace rlccd
