// REINFORCE training loop (paper Sec. III-D, Algorithm 1).
//
// Each iteration rolls out `workers` trajectories in parallel (the paper
// trains with 8 parallel processes on CPU farms; we use threads with
// per-worker policy clones so gradient accumulation is race-free and
// deterministic). A worker decodes its trajectory on its own clone with a
// StepwiseBackward rollout, which leaves sum_t grad(log pi_t) in the
// clone's parameter grads, then runs the reward flow and scales those
// grads by the advantage in place; the merge reads every surviving clone's
// grads in worker order. The terminal reward of a trajectory is the final TNS of
// the full placement flow run with the trajectory's selection, normalized
// against the default flow's TNS; a moving-average baseline reduces
// variance. Training stops when the best TNS has not improved for
// `patience` consecutive iterations (the paper's criterion, 3).
//
// Fault tolerance (DESIGN.md Sec. 9): with a checkpoint_dir set, the loop
// persists a versioned checkpoint (policy params, Adam state, root RNG
// stream, baseline, TrainStats) after iterations complete, and `resume`
// continues bit-identically from the newest valid one. Non-finite logits,
// TNS, rewards or gradients poison only the affected trajectory; an
// iteration with zero surviving trajectories is dropped (no parameter
// update, no history entry), and `rollback_after` consecutive dropped
// iterations restore the last known-good policy/optimizer state in memory.
// `rollout_deadline_sec` arms a per-rollout watchdog: the placement flow
// polls the deadline at pass boundaries and a stuck rollout is cancelled,
// degrading the iteration to its surviving trajectories.
// `isolate_workers` (DESIGN.md Sec. 10) hardens this further: each rollout
// runs in a forked, supervised child process, so even a segfault, OOM kill
// or uncooperative hang costs one trajectory — the supervisor restarts the
// worker with backoff and the iteration completes with the survivors.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "nn/optim.h"
#include "opt/flow.h"
#include "rl/audit.h"
#include "rl/evaluator.h"
#include "rl/policy.h"

namespace rlccd {

class FlowOutcomeCache;

struct TrainConfig {
  int workers = 8;
  int max_iterations = 40;
  int patience = 3;          // consecutive non-improving iterations
  int min_iterations = 4;
  double lr = 2e-3;
  double grad_clip = 5.0;
  double overlap_threshold = 0.3;  // rho (paper default)
  // Flow-outcome cache cap in MiB (rl/flow_cache.h): memoizes reward
  // evaluations by netlist-state hash for this run, so a selection set the
  // policy has already sampled skips the whole placement flow. Outcomes are
  // stored until they fill the cap, never evicted; 0 disables. Training
  // history, checkpoints and audit bytes are identical either way — the
  // flow is deterministic in the selection set — only the wall-clock and
  // the train.cache_* metrics change.
  std::size_t flow_cache_mb = 64;
  std::uint64_t seed = 1;
  FlowConfig flow;
  // Streams one ProgressEvent (phase "train", step "iteration") per
  // training iteration, carrying the same values recorded in
  // TrainStats::history, plus one (step "recovery") per dropped iteration
  // and one (step "checkpoint") per checkpoint written. Fires on the thread
  // that called train(), after the iteration's workers have joined. Not
  // owned; must outlive train().
  ProgressObserver* observer = nullptr;
  // Receives decision-provenance records: one rollout record per worker per
  // iteration (in worker order) and one iteration record per iteration,
  // emitted on the thread that called train() after the workers have
  // joined. The trainer collects the provenance either way (the audit
  // fields of IterationStats are always populated); the sink only controls
  // where the full records go. Not owned; must outlive train().
  AuditSink* audit = nullptr;

  // --- Fault tolerance ---
  // Directory for ckpt-NNNNNN.rlccd files, one written after every
  // completed iteration; empty disables checkpointing.
  std::string checkpoint_dir;
  // Resume from the newest valid checkpoint in checkpoint_dir (falling back
  // to older ones when the newest is corrupt). A resumed run replays the
  // remaining iterations bit-identically to an uninterrupted run.
  bool resume = false;
  // Per-rollout wall-clock deadline, counted from the start of the worker's
  // decode; <= 0 disables the watchdog. The reward flow polls it, so an
  // expired rollout is cancelled at the flow's next pass boundary and
  // excluded from the gradient estimate.
  double rollout_deadline_sec = 0.0;
  // Cooperative stop for long-lived hosts (the serve daemon's SIGTERM
  // drain): polled on the training thread at iteration boundaries. When it
  // expires, the loop stops before starting another iteration — everything
  // completed so far is already checkpointed (with a checkpoint_dir set),
  // so a later resume continues bit-identically — and the final greedy
  // decode is skipped. TrainStats reflects the completed prefix. Not owned;
  // must outlive train(). Null disables.
  const CancelToken* cancel = nullptr;
  // After this many consecutive dropped iterations, restore the last
  // known-good policy/optimizer/baseline state before continuing.
  int rollback_after = 2;

  // --- Process isolation (DESIGN.md Sec. 10) ---
  // Run each rollout in a forked child process supervised over a pipe
  // (rl/isolation/supervisor.h, on common/child.h) instead of a thread. A
  // crash, hang or OOM kill then costs one trajectory, not the training
  // run: the supervisor classifies the failure, restarts the worker with
  // exponential backoff, and after `max_worker_restarts` failed attempts
  // the iteration proceeds with the surviving trajectories (the crashed
  // worker's audit record is marked `crashed`). When on,
  // `rollout_deadline_sec` becomes a hard SIGKILL deadline enforced by the
  // parent (superseding the cooperative watchdog); a child beats every
  // 0.25 s and is SIGKILLed after 5 s of silence (the SupervisorConfig
  // defaults). A child runs the same rollout as a worker thread and ships
  // its scaled gradients back over the wire. A crash-free isolated run
  // produces bit-identical TrainStats, checkpoints and audit bytes to the
  // thread backend. Ignored (with a warning) on platforms
  // without fork(); the thread backend remains the default.
  bool isolate_workers = false;
  // Restarts allowed per worker per iteration; attempts = restarts + 1.
  int max_worker_restarts = 2;
  // Restart backoff base: restart r waits min(base * 2^r, 2.0) seconds plus
  // deterministic jitter.
  double worker_backoff_sec = 0.05;
};

struct IterationStats {
  double mean_reward = 0.0;
  double mean_tns = 0.0;
  double iter_best_tns = 0.0;  // best trajectory this iteration
  double best_tns = 0.0;       // best seen so far (incl. this iteration)
  double mean_steps = 0.0;     // selection count per trajectory
  // Provenance aggregates (checkpoint format v2):
  double mean_entropy = 0.0;   // mean policy entropy over surviving rollouts
  double grad_norm = 0.0;      // pre-clip norm of the merged gradient
  double baseline = 0.0;       // baseline used for this iteration's advantage
};

struct TrainStats {
  double begin_tns = 0.0;          // post global place
  double default_tns = 0.0;        // default flow (empty selection)
  std::size_t default_nve = 0;
  double best_tns = 0.0;
  std::vector<PinId> best_selection;
  std::vector<IterationStats> history;
  int iterations = 0;
  int flow_runs = 0;               // reward evaluations (excl. default)
  double train_seconds = 0.0;
};

class ReinforceTrainer {
 public:
  ReinforceTrainer(const Design* design, Policy* policy, TrainConfig config);
  ~ReinforceTrainer();  // out of line: FlowOutcomeCache is incomplete here

  // Trains the policy in place; returns the full history and best solution.
  TrainStats train();

  // Runs the placement flow, uncached, on a pristine copy with `selection`;
  // returns the full flow result (used for final reporting and by ablation
  // benches that need pass-by-pass detail). The two-argument form threads a
  // watchdog token into the flow. Reward evaluations inside train() go
  // through the memoizing RolloutEvaluator instead.
  FlowResult evaluate_selection(std::span<const PinId> selection) const;
  FlowResult evaluate_selection(std::span<const PinId> selection,
                                const CancelToken* cancel) const;

  [[nodiscard]] const DesignGraph& graph() const { return graph_; }
  // The trainer's flow-outcome cache; null when flow_cache_mb == 0.
  [[nodiscard]] FlowOutcomeCache* flow_cache() const { return cache_.get(); }

 private:
  const Design* design_;
  Policy* policy_;
  TrainConfig config_;
  DesignGraph graph_;

  // Owned cache + the single evaluation seam every backend goes through.
  // Mutable because evaluate_selection() is logically const but reuses the
  // evaluator's internal scratch pool (guarded by its own mutex).
  std::unique_ptr<FlowOutcomeCache> cache_;
  mutable RolloutEvaluator evaluator_;
};

}  // namespace rlccd
