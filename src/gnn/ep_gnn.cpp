#include "gnn/ep_gnn.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace rlccd {

EpGnn::EpGnn(const EpGnnConfig& config, Rng& rng) : config_(config) {
  RLCCD_EXPECTS(config.layers >= 1);
  std::size_t in = config.in_features;
  for (int l = 0; l < config.layers; ++l) {
    proj_.emplace_back(in, config.hidden, rng);
    agg_.emplace_back(in, config.hidden, rng);
    gate_.push_back(Tensor::zeros(1, 1, /*requires_grad=*/true));
    in = config.hidden;
  }
  fc_ = Linear(config.hidden, config.embedding, rng);
}

Tensor EpGnn::forward(const Tensor& x, const SparseOperand& adj,
                      const SparseOperand& cones,
                      const std::vector<std::size_t>& ep_rows) const {
  return Encoder(*this, adj, cones, ep_rows).encode(x);
}

EpGnn::Encoder::Encoder(const EpGnn& gnn, const SparseOperand& adj,
                        const SparseOperand& cones,
                        const std::vector<std::size_t>& ep_rows)
    : gnn_(&gnn),
      adj_(&adj),
      cones_(&cones),
      ep_rows_(&ep_rows),
      layers_(gnn.proj_.size()) {
  RLCCD_EXPECTS(adj.matrix.rows == adj.matrix.cols);
  RLCCD_EXPECTS(cones.matrix.cols == adj.matrix.rows);
  RLCCD_EXPECTS(cones.matrix.rows == ep_rows.size());
  for (RowSet* set : {&in_, &neigh_, &out_rows_}) {
    set->member.assign(adj.matrix.rows, 0);
  }
  head_rows_.member.assign(ep_rows.size(), 0);
}

std::size_t EpGnn::Encoder::rows_full() const {
  return layers_.size() * adj_->matrix.rows + ep_rows_->size();
}

Tensor EpGnn::Encoder::encode(const Tensor& x) {
  const EpGnn& gnn = *gnn_;
  RLCCD_EXPECTS(x.cols() == gnn.config_.in_features);
  RLCCD_EXPECTS(x.rows() == adj_->matrix.rows);
  // The previous step's graph is spent: nothing outside the encoder still
  // holds its output.
  RLCCD_EXPECTS(!out_.defined() || out_.ptr().use_count() == 1);

  // A fresh encoder has no prior outputs, so rows_of() asks every op for
  // all of its rows and the row sets are never read.
  const bool fresh = x_.empty();
  find_changed_rows(x);
  rows_computed_ = fresh ? rows_full() : 0;

  const Tensor* h = &x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (!fresh) {
      // Eq. 2 reads a cell's own row and its neighbours' rows: the
      // neighbour mean changes on the cells adjacent to a changed row, the
      // layer output on those and on the changed rows themselves.
      neigh_.clear();
      grow(adj_->matrix_t, in_, neigh_);
      neigh_.sort();
      out_rows_.clear();
      for (std::uint32_t r : in_.rows) out_rows_.insert(r);
      for (std::uint32_t r : neigh_.rows) out_rows_.insert(r);
      out_rows_.sort();
      rows_computed_ += out_rows_.rows.size();
    }
    Layer& n = layers_[l];
    const Linear& proj = gnn.proj_[l];
    const Linear& agg = gnn.agg_[l];
    Tensor gamma = ops::sigmoid(gnn.gate_[l]);           // (0,1)
    Tensor one_minus = ops::affine(gamma, -1.0f, 1.0f);  // 1 - gamma
    n.proj = ops::linear(*h, proj.weight(), proj.bias(), rows_of(n.proj, in_));
    n.self = ops::scale_by_scalar(n.proj, gamma, rows_of(n.self, in_));
    n.neigh = ops::spmm(*adj_, *h, rows_of(n.neigh, neigh_));
    n.agg = ops::linear(n.neigh, agg.weight(), agg.bias(),
                        rows_of(n.agg, neigh_));
    n.agg_scaled =
        ops::scale_by_scalar(n.agg, one_minus, rows_of(n.agg_scaled, neigh_));
    n.pre = ops::add(n.self, n.agg_scaled, rows_of(n.pre, out_rows_));
    n.h = ops::sigmoid(n.pre, rows_of(n.h, out_rows_));
    h = &n.h;
    std::swap(in_, out_rows_);
  }

  if (!fresh) {
    // Eq. 3 reads an endpoint's own cell and the cells of its cone.
    head_rows_.clear();
    grow(cones_->matrix_t, in_, head_rows_);
    for (std::size_t e = 0; e < ep_rows_->size(); ++e) {
      if (in_.member[(*ep_rows_)[e]]) head_rows_.insert(e);
    }
    head_rows_.sort();
    rows_computed_ += head_rows_.rows.size();
  }
  Tensor ep_self = ops::gather_rows(*h, *ep_rows_);
  cone_sum_ = ops::spmm(*cones_, *h, rows_of(cone_sum_, head_rows_));
  head_in_ = ops::add(ep_self, cone_sum_, rows_of(head_in_, head_rows_));
  out_ = ops::linear(head_in_, gnn.fc_.weight(), gnn.fc_.bias(),
                     rows_of(out_, head_rows_));
  return out_;
}

ops::OutRows EpGnn::Encoder::rows_of(Tensor& prior,
                                     const RowSet& dirty) const {
  if (!prior.defined()) return {};
  return {&prior, &dirty.rows};
}

// Stores `x` and, unless it is the first, collects the rows that differ
// from the previous call's into in_.
void EpGnn::Encoder::find_changed_rows(const Tensor& x) {
  const float* v = x.data();
  if (x_.empty()) {
    x_.assign(v, v + x.size());
    return;
  }
  const std::size_t cols = x.cols();
  in_.clear();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* prev = x_.data() + r * cols;
    if (std::memcmp(prev, v + r * cols, cols * sizeof(float)) != 0) {
      std::copy_n(v + r * cols, cols, prev);
      in_.insert(static_cast<std::uint32_t>(r));
    }
  }
}

// Adds to `to` every row of M that reads a row in `from`, given M's
// transpose: row c of M^T lists the rows of M with an entry in column c.
void EpGnn::Encoder::grow(const SparseMatrix& reach_t, const RowSet& from,
                          RowSet& to) const {
  for (std::uint32_t c : from.rows) {
    for (std::uint32_t k = reach_t.row_ptr[c]; k < reach_t.row_ptr[c + 1];
         ++k) {
      to.insert(reach_t.col_idx[k]);
    }
  }
}

void EpGnn::Encoder::RowSet::clear() {
  for (std::uint32_t r : rows) member[r] = 0;
  rows.clear();
}

void EpGnn::Encoder::RowSet::insert(std::uint32_t r) {
  if (member[r]) return;
  member[r] = 1;
  rows.push_back(r);
}

void EpGnn::Encoder::RowSet::sort() { std::sort(rows.begin(), rows.end()); }

std::vector<Tensor> EpGnn::parameters() const {
  std::vector<Tensor> params;
  for (std::size_t l = 0; l < proj_.size(); ++l) {
    for (Tensor& t : proj_[l].parameters()) params.push_back(t);
    for (Tensor& t : agg_[l].parameters()) params.push_back(t);
    params.push_back(gate_[l]);
  }
  for (Tensor& t : fc_.parameters()) params.push_back(t);
  return params;
}

std::vector<float> EpGnn::gamma_values() const {
  std::vector<float> out;
  for (const Tensor& g : gate_) {
    out.push_back(1.0f / (1.0f + std::exp(-g.item())));
  }
  return out;
}

}  // namespace rlccd
