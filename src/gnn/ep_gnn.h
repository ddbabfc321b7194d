// EP-GNN: endpoint-oriented graph neural network (paper Sec. III-B.1).
//
// Three graph-convolution layers implementing Eq. 2,
//   f_v^l = sigmoid( gamma * f_v^{l-1} W_proj
//                    + (1 - gamma) * W_agg( mean_{j in N(v)} f_j^{l-1} ) ),
// with gamma a trainable scalar per layer (kept in (0,1) via a sigmoid
// reparameterization), followed by the Eq. 3 endpoint head
//   f_e = FC( f_e^{L} + sum_{j in cone(e)} f_j^{L} ).
// Hidden dimension 32, endpoint embeddings 16, as in the paper.
//
// The paper re-runs EP-GNN at every selection step. Between two steps only
// Table I column 0 changes, on the cells of the endpoints the step selected
// or masked, so EpGnn::Encoder recomputes only the rows that change can
// reach (DESIGN.md Sec. 5, "Incremental re-encode"); forward() is a fresh
// encoder's first step. Given the valid endpoints, the encoder's backward
// visits only the rows that can reach one ("Live-row backward").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/modules.h"
#include "nn/sparse.h"

namespace rlccd {

struct EpGnnConfig {
  std::size_t in_features = 13;
  std::size_t hidden = 32;
  std::size_t embedding = 16;
  int layers = 3;
};

class EpGnn {
 public:
  EpGnn() = default;
  EpGnn(const EpGnnConfig& config, Rng& rng);

  // X: [num_cells, in_features]; returns endpoint embeddings
  // [num_endpoints, embedding]. `adj` and `cones` must outlive the backward
  // pass of any tensor produced here.
  [[nodiscard]] Tensor forward(const Tensor& x, const SparseOperand& adj,
                               const SparseOperand& cones,
                               const std::vector<std::size_t>& ep_rows) const;

  // EP-GNN across the steps of one rollout. encode() finds the feature rows
  // that differ from the previous call's, grows them one adjacency hop per
  // layer (Eq. 2) and then through the cone matrix and the endpoint rows
  // (Eq. 3), and recomputes only the rows they reach; the first call
  // computes every row. The new step's nodes take over the previous step's
  // value storage, so that step's graph must be spent when encode() is
  // called again: its backward run (or never to run) and its values never
  // read again. A caller that keeps every step's graph alive uses a fresh
  // Encoder per step. Nodes, parents and backward are the full forward's,
  // so values and gradients are bit-identical to it.
  //
  // Given the valid endpoints, the backward visits only the rows that can
  // reach one (DESIGN.md Sec. 5, "Live-row backward"): the head's valid
  // rows, their own cells and cone cells in the last layer, and one
  // adjacency hop more per earlier layer. The gradients still equal the
  // full backward's bit for bit when the gradient that reaches each invalid
  // endpoint's row is zero, as the attention decoder's masked softmax
  // leaves it. Every computed row is checked for finiteness, because
  // 0 * inf is not 0: once one is not finite, the encoder's backward visits
  // every row for the rest of its life.
  //
  // Clean rows keep values computed at earlier steps, so the parameters
  // must not change while an encoder lives: it is meant for one rollout.
  class Encoder {
   public:
    // `gnn` and the operands must outlive the encoder; `adj` and `cones`
    // also the backward of its results, as for forward().
    Encoder(const EpGnn& gnn, const SparseOperand& adj,
            const SparseOperand& cones,
            const std::vector<std::size_t>& ep_rows);

    // As EpGnn::forward; `valid` holds one flag per endpoint.
    [[nodiscard]] Tensor encode(const Tensor& x,
                                const std::vector<char>* valid = nullptr);

    // Rows the last encode() computed and the rows its backward visits,
    // over the layer outputs and the endpoint head, and the rows a full
    // forward computes.
    [[nodiscard]] std::size_t rows_computed() const { return rows_computed_; }
    [[nodiscard]] std::size_t rows_backward() const { return rows_backward_; }
    [[nodiscard]] std::size_t rows_full() const;

   private:
    // Row indices in ascending order with a membership flag per row.
    struct RowSet {
      std::vector<char> member;
      std::vector<std::uint32_t> rows;
      void clear();
      void insert(std::uint32_t r);
      void sort();
    };
    // One layer's op outputs: the previous step's until encode() replaces
    // them.
    struct Layer {
      Tensor proj, neigh, agg, h;
    };

    // Per layer output, then the head: the rows whose gradient can be
    // nonzero (ops::OutRows::live).
    using LiveRows = std::vector<ops::RowList>;

    [[nodiscard]] ops::OutRows rows_of(Tensor& prior, const RowSet& dirty,
                                       std::size_t live) const;
    [[nodiscard]] std::shared_ptr<const ops::RowList> live_rows(
        std::size_t i) const;
    void find_changed_rows(const Tensor& x);
    void grow(const SparseMatrix& reach_t, const RowSet& from,
              RowSet& to) const;
    void find_live_rows(const std::vector<char>& valid);

    const EpGnn* gnn_;
    const SparseOperand* adj_;
    const SparseOperand* cones_;
    const std::vector<std::size_t>* ep_rows_;
    std::vector<float> x_;  // the previous call's features
    std::vector<Layer> layers_;
    Tensor cone_sum_, head_in_, out_;
    RowSet in_, neigh_, out_rows_, head_rows_;
    std::size_t rows_computed_ = 0;
    std::size_t rows_backward_ = 0;
    // This step's live rows, null when its backward visits every row, and
    // the previous step's. Nodes keep the lists until they die, so a list
    // is refilled only when no node still holds it.
    std::shared_ptr<LiveRows> live_, spare_;
    std::vector<char> reach_;  // per cell, for find_live_rows()
    // Every row computed so far was checked and is finite.
    bool checked_ = true;
  };

  [[nodiscard]] std::vector<Tensor> parameters() const;
  [[nodiscard]] const EpGnnConfig& config() const { return config_; }

  // Current gamma (post-sigmoid) per layer — exposed for tests/analysis.
  [[nodiscard]] std::vector<float> gamma_values() const;

 private:
  EpGnnConfig config_;
  std::vector<Linear> proj_;
  std::vector<Linear> agg_;
  std::vector<Tensor> gate_;  // pre-sigmoid gamma logits, 1x1 each
  Linear fc_;
};

}  // namespace rlccd
