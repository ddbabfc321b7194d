#include "gnn/ep_gnn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/finite.h"

namespace rlccd {

namespace {

// True when every value in the listed rows of `t`, or in all of it when
// `rows` is null, is finite.
bool rows_finite(const Tensor& t, const ops::RowList* rows) {
  const float* v = t.data();
  const std::size_t n = t.cols();
  if (rows == nullptr) return all_finite({v, t.size()});
  for (std::uint32_t r : *rows) {
    if (!all_finite({v + r * n, n})) return false;
  }
  return true;
}

}  // namespace

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
      layers_(gnn.proj_.size()),
      reach_(adj.matrix.rows, 0) {
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

Tensor EpGnn::Encoder::encode(const Tensor& x,
                              const std::vector<char>* valid) {
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
  // The backward may skip a row only while every row the encoder holds is
  // known to be finite: a skipped term is a value times a zero gradient.
  // Without valid flags this step's rows go unchecked.
  if (valid == nullptr) checked_ = false;
  if (checked_) {
    find_live_rows(*valid);
  } else {
    live_.reset();
  }
  auto check = [&](const Tensor& t, const RowSet& dirty) {
    if (checked_) checked_ = rows_finite(t, fresh ? nullptr : &dirty.rows);
  };
  check(x, in_);

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
    n.proj = ops::linear(*h, proj.weight(), proj.bias(),
                         rows_of(n.proj, in_, l));
    check(n.proj, in_);
    n.neigh = ops::spmm(*adj_, *h, rows_of(n.neigh, neigh_, l));
    check(n.neigh, neigh_);
    n.agg = ops::linear(n.neigh, agg.weight(), agg.bias(),
                        rows_of(n.agg, neigh_, l));
    check(n.agg, neigh_);
    n.h = ops::gated_sigmoid(n.proj, n.agg, gamma, one_minus,
                             rows_of(n.h, out_rows_, l));
    check(n.h, out_rows_);
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
  const std::size_t head = layers_.size();
  ops::OutRows gather;
  gather.live = live_rows(head);
  Tensor ep_self = ops::gather_rows(*h, *ep_rows_, gather);
  cone_sum_ = ops::spmm(*cones_, *h, rows_of(cone_sum_, head_rows_, head));
  head_in_ = ops::add(ep_self, cone_sum_, rows_of(head_in_, head_rows_, head));
  check(head_in_, head_rows_);
  out_ = ops::linear(head_in_, gnn.fc_.weight(), gnn.fc_.bias(),
                     rows_of(out_, head_rows_, head));

  rows_backward_ = rows_full();
  if (live_ != nullptr) {
    if (!checked_) {
      // A value this step computed is not finite. The nodes read their
      // lists when the backward runs, so listing every row makes it the
      // full backward.
      for (std::size_t i = 0; i < live_->size(); ++i) {
        ops::RowList& rows = (*live_)[i];
        rows.resize(i < head ? adj_->matrix.rows : ep_rows_->size());
        std::iota(rows.begin(), rows.end(), 0u);
      }
    }
    rows_backward_ = 0;
    for (const ops::RowList& rows : *live_) rows_backward_ += rows.size();
  }
  return out_;
}

// The op rows of an output whose predecessor is `prior` (none when
// undefined) and whose live rows are list `live` of live_.
ops::OutRows EpGnn::Encoder::rows_of(Tensor& prior, const RowSet& dirty,
                                     std::size_t live) const {
  ops::OutRows rows;
  if (prior.defined()) {
    rows.prior = &prior;
    rows.dirty = &dirty.rows;
  }
  rows.live = live_rows(live);
  return rows;
}

// List `i` of live_, sharing its ownership; null without live rows.
std::shared_ptr<const ops::RowList> EpGnn::Encoder::live_rows(
    std::size_t i) const {
  if (live_ == nullptr) return nullptr;
  return {live_, &(*live_)[i]};
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

// Fills live_ from the valid endpoints: the head's valid rows; in the last
// layer, the cells Eq. 3 reads for them (their own cells and cone cells);
// in each earlier layer, the rows of the next plus the cells Eq. 2 reads
// for those (their adjacency rows). One flag per cell and an in-order scan
// keep every list ascending.
void EpGnn::Encoder::find_live_rows(const std::vector<char>& valid) {
  RLCCD_EXPECTS(valid.size() == ep_rows_->size());
  std::swap(live_, spare_);
  if (live_ == nullptr || live_.use_count() > 1) {
    live_ = std::make_shared<LiveRows>(layers_.size() + 1);
  }
  LiveRows& live = *live_;
  ops::RowList& head = live.back();
  head.clear();
  for (std::size_t e = 0; e < valid.size(); ++e) {
    if (valid[e]) head.push_back(static_cast<std::uint32_t>(e));
  }
  std::fill(reach_.begin(), reach_.end(), 0);
  const SparseMatrix& cone = cones_->matrix;
  for (std::uint32_t e : head) {
    reach_[(*ep_rows_)[e]] = 1;
    for (std::uint32_t k = cone.row_ptr[e]; k < cone.row_ptr[e + 1]; ++k) {
      reach_[cone.col_idx[k]] = 1;
    }
  }
  const SparseMatrix& adj = adj_->matrix;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    if (l + 1 < layers_.size()) {
      for (std::uint32_t r : live[l + 1]) {
        for (std::uint32_t k = adj.row_ptr[r]; k < adj.row_ptr[r + 1]; ++k) {
          reach_[adj.col_idx[k]] = 1;
        }
      }
    }
    ops::RowList& rows = live[l];
    rows.resize(reach_.size());
    std::size_t count = 0;
    for (std::size_t c = 0; c < reach_.size(); ++c) {
      rows[count] = static_cast<std::uint32_t>(c);
      count += reach_[c];
    }
    rows.resize(count);
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
