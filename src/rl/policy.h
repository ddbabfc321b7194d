// RL-CCD policy network (paper Fig. 4): EP-GNN endpoint encoder, LSTM
// past-action encoder (Eq. 4) and pointer-style attention decoder
// (Eqs. 5-6). One rollout = one full endpoint-selection trajectory with the
// EP-GNN re-run every step (the RL-masked feature changes after each
// overlap-masking action, paper Sec. III-B.1). The re-run is incremental:
// each step recomputes only the rows the last step's mask change reaches,
// and a step's backward visits only the rows that can reach a valid
// endpoint, both bit-identical to the full computation (EpGnn::Encoder).
#pragma once

#include <vector>

#include "common/status.h"
#include "gnn/ep_gnn.h"
#include "rl/env.h"

namespace rlccd {

struct PolicyConfig {
  EpGnnConfig gnn;
  std::size_t lstm_hidden = 32;
  std::size_t attn_dim = 32;
};

class Policy {
 public:
  Policy(const PolicyConfig& config, std::uint64_t seed);

  struct RolloutResult {
    // Present (graph-connected) only in RolloutMode::FullGraph.
    Tensor log_prob_sum;
    double log_prob_value = 0.0;      // sum of log pi(a_t), always valid
    std::vector<std::size_t> actions; // endpoint indices in selection order
    std::vector<PinId> selected;      // same, as pins
    int steps = 0;
    // Set when a non-finite attention logit was detected: the rollout stops
    // at that step and the trajectory must be excluded from the gradient
    // (counter "policy.nonfinite_logits" records the occurrence).
    bool poisoned = false;
  };

  enum class RolloutMode {
    // Keep the entire trajectory graph alive; caller backwards through
    // log_prob_sum (exact BPTT; memory O(T x graph), used in tests). Every
    // step's encode is a full one, since no earlier step's graph is spent.
    FullGraph,
    // Backward each step's log-probability immediately, accumulating
    // sum_t grad(log pi_t) into the parameter grads, and detach the
    // recurrent state between steps (truncated BPTT, memory O(graph)).
    // REINFORCE's gradient is -(r - b) * sum_t grad(log pi_t), linear in
    // the advantage, so the caller scales the accumulated grads afterwards
    // (ReinforceTrainer does). Parameter grads must be zero on entry.
    StepwiseBackward,
    // No gradients at all: per-step graphs are dropped immediately.
    // For greedy decoding / evaluation rollouts.
    Inference,
  };

  // Runs one trajectory on `env` (reset by the caller). When `greedy`, the
  // argmax endpoint is taken instead of sampling. When `audit` is non-null,
  // each step's decision provenance (chosen endpoint, slack, log-prob,
  // entropy, top-k probabilities, mask events) is recorded into it; the
  // capture is read-only — it consumes no RNG draws and never changes the
  // trajectory, so audited and unaudited runs are bit-identical.
  //
  // When `forced` is non-null the rollout is a teacher-forced replay: step t
  // takes (*forced)[t] instead of sampling, consumes no RNG draws, and skips
  // fault injection (the triggers were already consumed when the trajectory
  // was first decoded). The op sequence is otherwise identical, so a
  // StepwiseBackward replay of a decoded trajectory accumulates bit-identical
  // parameter gradients to the live stepwise rollout that produced it.
  RolloutResult rollout(const DesignGraph& graph, SelectionEnv& env, Rng& rng,
                        bool greedy = false,
                        RolloutMode mode = RolloutMode::FullGraph,
                        SelectionAudit* audit = nullptr,
                        const std::vector<std::size_t>* forced = nullptr) const;

  // Decodes `envs.size()` independent sampled trajectories, one rollout()
  // per env in RolloutMode::Inference with its own RNG stream and audit
  // (null entries skip the capture), in env order.
  std::vector<RolloutResult> rollout_batched(
      const DesignGraph& graph, std::vector<SelectionEnv>& envs,
      std::vector<Rng>& rngs, const std::vector<SelectionAudit*>& audits) const;

  [[nodiscard]] std::vector<Tensor> parameters() const;
  // EP-GNN weights only — the transferable part (paper Sec. IV-B: the
  // encoder-decoder is re-initialized per design, the GNN is reused).
  [[nodiscard]] std::vector<Tensor> gnn_parameters() const {
    return gnn_.parameters();
  }

  // Structural copy with identical parameter values (per-worker clones).
  [[nodiscard]] Policy clone() const;

  [[nodiscard]] const PolicyConfig& config() const { return config_; }

  Status save_gnn(const std::string& path) const;
  Status load_gnn(const std::string& path);

 private:
  PolicyConfig config_;
  std::uint64_t seed_;
  EpGnn gnn_;
  LSTMCell lstm_;
  Tensor attn_w1_;  // [embedding, attn_dim]
  Tensor attn_w2_;  // [lstm_hidden, attn_dim]
  Tensor attn_v_;   // [attn_dim, 1]
};

}  // namespace rlccd
