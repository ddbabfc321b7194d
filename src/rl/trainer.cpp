#include "rl/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "common/fault.h"
#include "common/finite.h"
#include "common/log.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "rl/checkpoint.h"
#include "rl/flow_cache.h"
#include "rl/isolation/supervisor.h"
#include "rl/isolation/wire.h"

namespace rlccd {

namespace {

// The REINFORCE baseline is a moving average of the iterations' mean
// rewards; this is the previous baseline's weight in it.
constexpr double kBaselineDecay = 0.7;

// Moves an isolated worker's shipped gradients into the parent's clone of
// that worker, where the thread backend leaves them too. The shapes arrive
// over a pipe, so they are checked against the policy's parameters.
Status adopt_gradients(std::vector<std::vector<float>>& grads, Policy& clone) {
  std::vector<Tensor> params = clone.parameters();
  if (grads.size() != params.size()) {
    return Status::corrupt("rollout wire has %zu gradient tensors, policy has "
                           "%zu parameters",
                           grads.size(), params.size());
  }
  for (std::size_t p = 0; p < params.size(); ++p) {
    if (grads[p].size() != params[p].size()) {
      return Status::corrupt("gradient tensor %zu has %zu values, parameter "
                             "has %zu",
                             p, grads[p].size(), params[p].size());
    }
    params[p].grad_mut() = std::move(grads[p]);
  }
  return Status();
}

}  // namespace

ReinforceTrainer::ReinforceTrainer(const Design* design, Policy* policy,
                                   TrainConfig config)
    : design_(design),
      policy_(policy),
      config_(config),
      graph_(*design),
      cache_(config_.flow_cache_mb > 0
                 ? std::make_unique<FlowOutcomeCache>(config_.flow_cache_mb)
                 : nullptr),
      evaluator_(design, config_.flow, cache_.get()) {
  RLCCD_EXPECTS(design != nullptr && policy != nullptr);
  RLCCD_EXPECTS(config.workers >= 1);
  RLCCD_EXPECTS(config.rollback_after >= 1);
  // With isolated workers the reward flows run inside forked children:
  // a flow observer would fire against copy-on-write state and a parent
  // cancel token cannot see the child's clock (see FlowConfig docs).
  RLCCD_DEBUG_ASSERT(!config_.isolate_workers ||
                     (config_.flow.observer == nullptr &&
                      config_.flow.cancel == nullptr));
}

ReinforceTrainer::~ReinforceTrainer() = default;

FlowResult ReinforceTrainer::evaluate_selection(
    std::span<const PinId> selection) const {
  return evaluate_selection(selection, nullptr);
}

FlowResult ReinforceTrainer::evaluate_selection(
    std::span<const PinId> selection, const CancelToken* cancel) const {
  return evaluator_.evaluate_full(selection, cancel);
}

TrainStats ReinforceTrainer::train() {
  RLCCD_SPAN("train");
  auto t_start = std::chrono::steady_clock::now();
  TrainStats stats;
  stats.begin_tns = graph_.begin_tns();

  static MetricsHistogram& hist_iter_seconds =
      MetricsRegistry::global().histogram("train.iteration.seconds");
  MetricsRegistry& reg = MetricsRegistry::global();
  static MetricsCounter& ctr_ckpt_written =
      reg.counter("train.checkpoints_written");
  static MetricsCounter& ctr_ckpt_failed =
      reg.counter("train.checkpoint_failures");
  static MetricsCounter& ctr_resumes = reg.counter("train.resumes");
  static MetricsCounter& ctr_poisoned =
      reg.counter("train.trajectories_poisoned");
  static MetricsCounter& ctr_cancelled =
      reg.counter("train.rollouts_cancelled");
  static MetricsCounter& ctr_iter_failed =
      reg.counter("train.iterations_failed");
  static MetricsCounter& ctr_rollbacks = reg.counter("train.rollbacks");
  static MetricsCounter& ctr_ckpt_skipped =
      reg.counter("train.checkpoints_skipped");
  static MetricsCounter& ctr_workers_lost = reg.counter("train.workers_lost");
  static MetricsCounter& ctr_iter_degraded =
      reg.counter("train.iterations_degraded");
  static MetricsCounter& ctr_train_cancelled =
      reg.counter("train.cancelled");

  Adam optimizer(policy_->parameters(), config_.lr);
  Rng root_rng(config_.seed ^ 0xABCDEF12345ull);
  double baseline = 0.0;
  bool baseline_init = false;
  int stall = 0;
  int start_iter = 0;

  // Snapshots the full training state; `next_iter` is the first iteration a
  // resumed (or rolled-back) loop would run.
  auto capture = [&](int next_iter) {
    TrainCheckpoint ckpt;
    ckpt.seed = config_.seed;
    ckpt.workers = config_.workers;
    ckpt.next_iter = next_iter;
    ckpt.baseline = baseline;
    ckpt.baseline_init = baseline_init;
    ckpt.stall = stall;
    ckpt.rng_state = root_rng.state();
    std::vector<Tensor> params = policy_->parameters();
    ckpt.params.reserve(params.size());
    ckpt.param_shapes.reserve(params.size());
    for (const Tensor& p : params) {
      ckpt.params.emplace_back(p.data(), p.data() + p.size());
      ckpt.param_shapes.emplace_back(p.rows(), p.cols());
    }
    ckpt.adam = optimizer.export_state();
    ckpt.stats = stats;
    return ckpt;
  };

  // Restores policy parameters, optimizer moments and loop state (but not
  // TrainStats) from a snapshot with already-validated shapes.
  auto restore_policy_state = [&](const TrainCheckpoint& ckpt) -> Status {
    std::vector<Tensor> params = policy_->parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::memcpy(params[i].data(), ckpt.params[i].data(),
                  ckpt.params[i].size() * sizeof(float));
    }
    RLCCD_TRY(optimizer.import_state(ckpt.adam));
    root_rng.set_state(ckpt.rng_state);
    baseline = ckpt.baseline;
    baseline_init = ckpt.baseline_init;
    stall = ckpt.stall;
    return Status();
  };

  // Full resume: fingerprint + shape validation, then state + TrainStats.
  auto restore_checkpoint = [&](const TrainCheckpoint& ckpt) -> Status {
    if (ckpt.seed != config_.seed ||
        ckpt.workers != config_.workers) {
      return Status::failed_precondition(
          "checkpoint was trained with seed %llu / %d workers; config has "
          "seed %llu / %d workers",
          static_cast<unsigned long long>(ckpt.seed), ckpt.workers,
          static_cast<unsigned long long>(config_.seed), config_.workers);
    }
    std::vector<Tensor> params = policy_->parameters();
    if (ckpt.params.size() != params.size()) {
      return Status::invalid_argument("checkpoint has %zu parameters, "
                                      "policy has %zu",
                                      ckpt.params.size(), params.size());
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (ckpt.param_shapes[i].first != params[i].rows() ||
          ckpt.param_shapes[i].second != params[i].cols()) {
        return Status::invalid_argument(
            "checkpoint parameter %zu: shape %llux%llu, expected %zux%zu", i,
            static_cast<unsigned long long>(ckpt.param_shapes[i].first),
            static_cast<unsigned long long>(ckpt.param_shapes[i].second),
            params[i].rows(), params[i].cols());
      }
    }
    RLCCD_TRY(restore_policy_state(ckpt));
    stats = ckpt.stats;
    start_iter = ckpt.next_iter;
    return Status();
  };

  bool resumed = false;
  if (config_.resume && !config_.checkpoint_dir.empty()) {
    std::vector<std::string> paths;
    Status listed = list_checkpoints(config_.checkpoint_dir, paths);
    if (!listed.ok()) {
      RLCCD_LOG_INFO("resume requested but %s; starting fresh",
                     listed.to_string().c_str());
    }
    // Newest first; a corrupt or incompatible file falls back to the next.
    for (const std::string& path : paths) {
      TrainCheckpoint ckpt;
      Status s = load_checkpoint(ckpt, path);
      if (s.ok()) s = restore_checkpoint(ckpt);
      if (!s.ok()) {
        ctr_ckpt_skipped.increment();
        RLCCD_LOG_WARN("skipping checkpoint %s: %s", path.c_str(),
                       s.to_string().c_str());
        continue;
      }
      resumed = true;
      ctr_resumes.increment();
      RLCCD_LOG_INFO("resumed from %s (iteration %d, best TNS %.3f)",
                     path.c_str(), start_iter, stats.best_tns);
      break;
    }
  }

  if (!resumed) {
    FlowResult default_result = evaluate_selection({});
    stats.default_tns = default_result.final_summary.tns;
    stats.default_nve = default_result.final_summary.nve;
    stats.best_tns = stats.default_tns;  // empty selection is always available
  }

  if (graph_.num_endpoints() == 0) {
    RLCCD_LOG_INFO("no violating endpoints; nothing to train");
    return stats;
  }

  const double reward_denom =
      std::max({std::abs(stats.default_tns), 0.02 * std::abs(stats.begin_tns),
                1e-3});
  // From here on every reward evaluation — worker rollouts and the final
  // greedy decode — goes through the memoizing evaluator with this
  // normalization (rewards are recomputed on cache hits, never stored).
  evaluator_.set_reward_transform(stats.default_tns, reward_denom);

  // One worker's rollout. Its advantage-scaled gradients are not copied
  // here: they stay in the worker's policy clone until the merge.
  struct WorkerOut {
    EvalOutcome outcome;   // reward evaluation (fresh or memoized)
    int steps = 0;
    bool poisoned = false;  // non-finite logits/TNS/reward/gradients
    bool crashed = false;   // isolated worker lost (restarts exhausted)
    std::vector<PinId> selection;
    SelectionAudit audit;   // decision provenance

    [[nodiscard]] bool survived() const {
      return !poisoned && !outcome.cancelled && !crashed;
    }
  };

  bool use_isolation = config_.isolate_workers;
  if (use_isolation && !RolloutSupervisor::supported()) {
    RLCCD_LOG_WARN(
        "isolate_workers requested but process isolation is unsupported on "
        "this platform; using the thread backend");
    use_isolation = false;
  }

  // Last known-good state for in-memory rollback after repeated dropped
  // iterations; refreshed after every successful parameter update.
  TrainCheckpoint last_good = capture(start_iter);
  int consecutive_failures = 0;

  bool run_cancelled = false;
  for (int iter = start_iter; iter < config_.max_iterations; ++iter) {
    // Cooperative stop (serve drain, Ctrl-C hosts): everything completed so
    // far is checkpointed, so stopping here keeps the run resumable.
    if (config_.cancel != nullptr && config_.cancel->expired()) {
      run_cancelled = true;
      ctr_train_cancelled.increment();
      RLCCD_TRACE_INSTANT("train.cancelled");
      RLCCD_LOG_INFO(
          "training cancelled at iteration boundary %d (%d completed)", iter,
          stats.iterations);
      break;
    }
    // Early-stop check at the iteration boundary, so an interrupted run
    // resumed from a checkpoint stops at exactly the same iteration as an
    // uninterrupted one.
    if (iter >= config_.min_iterations && stall >= config_.patience) {
      RLCCD_LOG_INFO("early stop: no improvement in %d iterations", stall);
      break;
    }
    const auto t_iter = std::chrono::steady_clock::now();
    ScopedSpan iter_span("iteration");
    // Clone policies on the main thread (cheap, deterministic).
    std::vector<Policy> clones;
    clones.reserve(static_cast<std::size_t>(config_.workers));
    {
      RLCCD_SPAN("policy_clone");
      for (int w = 0; w < config_.workers; ++w) clones.push_back(policy_->clone());
    }

    std::vector<WorkerOut> outs(static_cast<std::size_t>(config_.workers));

    // Rollout body shared by both backends: decode, run the reward flow,
    // scale this clone's gradients. Runs on a worker thread, or — isolated —
    // inside a forked child. Forking the root RNG is pure (it never mutates
    // the root state), so each worker's stream depends only on (iteration,
    // worker), never on scheduling.
    auto rollout_body = [&](int w, Policy& pol, WorkerOut& out,
                            const CancelToken* watchdog) {
      Rng rng = root_rng.fork(static_cast<std::uint64_t>(iter) * 131 +
                              static_cast<std::uint64_t>(w));
      SelectionEnv env(&graph_, config_.overlap_threshold);
      // Stepwise rollout: sum_t grad(log pi_t) lands in the clone's
      // parameter grads (zero on entry) with per-step graphs freed.
      Policy::RolloutResult ro =
          pol.rollout(graph_, env, rng, /*greedy=*/false,
                      Policy::RolloutMode::StepwiseBackward, &out.audit);
      out.steps = ro.steps;
      out.selection = std::move(ro.selected);
      if (ro.poisoned) {
        out.poisoned = true;
        ctr_poisoned.increment();
        RLCCD_TRACE_INSTANT("train.trajectory_poisoned");
        RLCCD_LOG_WARN("worker %d: non-finite logits; trajectory dropped", w);
        return;
      }
      out.outcome = evaluator_.evaluate({out.selection, watchdog});
      if (out.outcome.cancelled) {
        ctr_cancelled.increment();
        RLCCD_TRACE_INSTANT("train.rollout_cancelled");
        RLCCD_LOG_WARN(
            "worker %d: rollout exceeded %.1fs deadline; cancelled", w,
            config_.rollout_deadline_sec);
        return;
      }
      if (fault_fire("nan_reward")) {
        out.outcome.summary.tns = std::numeric_limits<double>::quiet_NaN();
        out.outcome.reward = std::numeric_limits<double>::quiet_NaN();
      }
      if (!std::isfinite(out.outcome.summary.tns) ||
          !std::isfinite(out.outcome.reward)) {
        out.poisoned = true;
        ctr_poisoned.increment();
        RLCCD_LOG_WARN(
            "worker %d: non-finite reward (TNS %g); trajectory dropped", w,
            out.outcome.summary.tns);
        return;
      }

      // REINFORCE: grad = -(r - b) * sum_t grad(log pi_t), scaled in place
      // in the clone; the baseline is read once before the workers launch.
      const float scale = static_cast<float>(-(out.outcome.reward - baseline));
      bool grads_finite = true;
      for (Tensor& p : pol.parameters()) {
        std::vector<float>& g = p.grad_mut();
        for (float& v : g) v *= scale;
        if (!all_finite(g)) grads_finite = false;
      }
      if (!grads_finite) {
        out.poisoned = true;
        ctr_poisoned.increment();
        RLCCD_LOG_WARN(
            "worker %d: non-finite gradients; trajectory dropped", w);
      }
    };

    int n_crashed = 0;
    if (use_isolation) {
      // Process backend: fork one supervised child per worker. The child
      // runs the same rollout body as a worker thread; the supervisor's
      // SIGKILL deadline supersedes the cooperative watchdog, so the child
      // runs its flow uncancellable.
      SupervisorConfig scfg;
      scfg.workers = config_.workers;
      scfg.deadline_sec = config_.rollout_deadline_sec;
      scfg.max_restarts = config_.max_worker_restarts;
      scfg.backoff_base_sec = config_.worker_backoff_sec;
      scfg.backoff_seed =
          config_.seed ^ (static_cast<std::uint64_t>(iter) * 0x9E37ull);
      RolloutSupervisor supervisor(scfg);
      auto child = [&](int w) -> std::string {
        // Child process: everything here touches the forked child's
        // copy-on-write view of the trainer; the only output is the
        // returned wire payload. The scope captures the counters and
        // spans the rollout records (they die with the child otherwise)
        // so the parent can re-apply them.
        TelemetryScope scope;
        WorkerOut out;
        Policy& pol = clones[static_cast<std::size_t>(w)];
        {
          RLCCD_SPAN("rollout");
          // Deterministic stall fault: parks the worker past its
          // deadline (here: until the supervisor kills it).
          fault_stall_point("rollout_stall");
          rollout_body(w, pol, out, /*watchdog=*/nullptr);
        }
        RolloutWire wire;
        {
          // Closes before the snapshot below, so it ships with it; the
          // byte encoding after the snapshot stays outside.
          RLCCD_SPAN("wire_encode");
          wire.outcome = out.outcome;
          wire.steps = out.steps;
          wire.poisoned = out.poisoned;
          wire.selection = std::move(out.selection);
          if (out.survived()) {
            for (const Tensor& p : pol.parameters()) {
              wire.grads.push_back(p.grad());
            }
          }
          wire.audit = std::move(out.audit);
        }
        wire.telemetry = scope.snapshot();
        std::string payload;
        encode_rollout_wire(wire, payload);
        return payload;
      };
      std::vector<WorkerOutcome> outcomes;
      {
        // The parent's wait for its children. Their spans come back in the
        // wire, as "rollout" roots like the worker threads'.
        RLCCD_SPAN("rollout_wait");
        outcomes = supervisor.run(child);
      }
      for (int w = 0; w < config_.workers; ++w) {
        WorkerOut& out = outs[static_cast<std::size_t>(w)];
        WorkerOutcome& oc = outcomes[static_cast<std::size_t>(w)];
        RolloutWire wire;
        Status ds;
        {
          RLCCD_SPAN("wire_decode");
          ds = oc.completed
                   ? decode_rollout_wire(oc.payload, wire)
                   : Status::io_error("worker process lost after %d attempts "
                                      "(last failure: %s)",
                                      oc.attempts,
                                      worker_failure_name(oc.last_failure));
          if (ds.ok() && !wire.poisoned && !wire.outcome.cancelled) {
            ds = adopt_gradients(wire.grads, clones[static_cast<std::size_t>(w)]);
          }
        }
        if (!ds.ok()) {
          out.crashed = true;
          ++n_crashed;
          ctr_workers_lost.increment();
          RLCCD_TRACE_INSTANT("train.worker_lost");
          RLCCD_LOG_WARN("worker %d: %s; trajectory dropped", w,
                         ds.to_string().c_str());
          continue;
        }
        out.outcome = wire.outcome;
        out.steps = wire.steps;
        out.poisoned = wire.poisoned;
        out.selection = std::move(wire.selection);
        out.audit = std::move(wire.audit);
        // Adopt the child's fresh flow outcome into the parent's cache: the
        // child's own insert went into its copy-on-write image and died
        // with the process. Hits need no re-insert (the entry predates the
        // fork by construction), and cancelled or poisoned outcomes never
        // enter the cache. insert() counts nothing, so the child's probe
        // counters in wire.telemetry (applied below) stay the only count.
        if (cache_ != nullptr && out.outcome.flow_ran &&
            !out.outcome.cache_hit && !out.outcome.cancelled &&
            !out.poisoned) {
          cache_->insert(out.outcome.state_hash, out.outcome);
        }
        // Re-apply what the child's rollout recorded, so global counters,
        // histograms and span trees agree with the thread backend.
        reg.merge_delta(wire.telemetry);
      }
      if (n_crashed > 0) {
        ctr_iter_degraded.increment();
        RLCCD_TRACE_INSTANT("train.iteration_degraded");
        RLCCD_LOG_WARN(
            "iter %2d degraded: %d of %d workers lost their process", iter,
            n_crashed, config_.workers);
      }
    } else {
      // Each worker thread's spans are their own "rollout" root; this is the
      // main thread's wait for them.
      RLCCD_SPAN("rollout_wait");
      std::vector<std::thread> threads;
      for (int w = 0; w < config_.workers; ++w) {
        threads.emplace_back([&, w]() {
          // One trace row per worker slot, not one per iteration's thread.
          TraceRecorder::set_thread_slot(w);
          // Per-worker span: each worker thread owns its own span tree, so
          // eight concurrent rollouts aggregate without contention.
          RLCCD_SPAN("rollout");
          // Watchdog: the flow polls this token at pass boundaries, so a
          // stuck rollout cancels instead of wedging the whole iteration.
          CancelToken watchdog(config_.rollout_deadline_sec);
          // Deterministic stall fault: parks the worker past its deadline.
          fault_stall_point("rollout_stall");
          rollout_body(w, clones[static_cast<std::size_t>(w)],
                       outs[static_cast<std::size_t>(w)], &watchdog);
        });
      }
      for (std::thread& t : threads) t.join();
    }

    // Provenance: one rollout record per worker, in worker order, on this
    // thread (sinks need no locking).
    if (config_.audit != nullptr) {
      for (int w = 0; w < config_.workers; ++w) {
        const WorkerOut& out = outs[static_cast<std::size_t>(w)];
        RolloutAuditRecord rec;
        rec.iteration = iter;
        rec.worker = w;
        rec.tns = out.outcome.summary.tns;
        rec.reward = out.outcome.reward;
        rec.flow_ran = out.outcome.flow_ran;
        rec.poisoned = out.poisoned;
        rec.cancelled = out.outcome.cancelled;
        rec.crashed = out.crashed;
        rec.audit = &out.audit;
        config_.audit->on_rollout(rec);
      }
    }

    int survivors = 0;
    int n_poisoned = 0;
    int n_cancelled = 0;
    for (const WorkerOut& out : outs) {
      // Memoized evaluations count as flow runs: the cache returns exactly
      // what the run would have produced, so TrainStats stays identical
      // with the cache on or off.
      if (out.outcome.flow_ran) ++stats.flow_runs;
      if (out.poisoned) ++n_poisoned;
      if (out.outcome.cancelled) ++n_cancelled;
      if (out.survived()) ++survivors;
    }

    const double iter_seconds_so_far =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_iter)
            .count();
    if (survivors == 0) {
      // Every trajectory failed: drop the iteration (no parameter update,
      // no history entry) and, after repeated failures, roll the policy and
      // optimizer back to the last known-good state.
      ++consecutive_failures;
      ctr_iter_failed.increment();
      RLCCD_TRACE_INSTANT("train.iteration_dropped");
      bool rolled_back = false;
      if (consecutive_failures >= config_.rollback_after) {
        Status rs = restore_policy_state(last_good);
        if (rs.ok()) {
          rolled_back = true;
          consecutive_failures = 0;
          ctr_rollbacks.increment();
          RLCCD_TRACE_INSTANT("train.rollback");
          RLCCD_LOG_WARN(
              "iter %2d: rolled back to last good state (iteration %d)", iter,
              last_good.next_iter);
        } else {
          RLCCD_LOG_ERROR("rollback failed: %s", rs.to_string().c_str());
        }
      }
      RLCCD_LOG_WARN(
          "iter %2d dropped: 0 of %d trajectories survived (%d poisoned, %d "
          "cancelled, %d crashed)",
          iter, config_.workers, n_poisoned, n_cancelled, n_crashed);
      if (config_.observer != nullptr) {
        const ProgressMetric metrics[] = {
            {"poisoned", static_cast<double>(n_poisoned)},
            {"cancelled", static_cast<double>(n_cancelled)},
            {"crashed", static_cast<double>(n_crashed)},
            {"consecutive_failures", static_cast<double>(consecutive_failures)},
            {"rolled_back", rolled_back ? 1.0 : 0.0},
        };
        ProgressEvent event;
        event.phase = "train";
        event.step = "recovery";
        event.index = iter;
        event.seconds = iter_seconds_so_far;
        event.metrics = metrics;
        config_.observer->on_event(event);
      }
      if (config_.audit != nullptr) {
        IterationAuditRecord rec;
        rec.iteration = iter;
        rec.survivors = 0;
        rec.poisoned = n_poisoned;
        rec.cancelled = n_cancelled;
        rec.crashed = n_crashed;
        rec.baseline = baseline;
        config_.audit->on_iteration(rec);
      }
      continue;
    }
    consecutive_failures = 0;

    // Merge the surviving clones' gradients into the master policy (fixed
    // worker order => deterministic). With no failures this is the plain
    // 1/workers mean.
    double grad_norm = 0.0;
    {
      RLCCD_SPAN("grad_merge");
      optimizer.zero_grad();
      std::vector<Tensor> master = policy_->parameters();
      const float inv_w = 1.0f / static_cast<float>(survivors);
      for (int w = 0; w < config_.workers; ++w) {
        if (!outs[static_cast<std::size_t>(w)].survived()) continue;
        const std::vector<Tensor> src =
            clones[static_cast<std::size_t>(w)].parameters();
        for (std::size_t p = 0; p < master.size(); ++p) {
          std::vector<float>& g = master[p].grad_mut();
          const std::vector<float>& s = src[p].grad();
          for (std::size_t i = 0; i < g.size(); ++i) g[i] += s[i] * inv_w;
        }
      }
      grad_norm = clip_grad_norm(master, config_.grad_clip);
    }
    {
      RLCCD_SPAN("optimizer_step");
      optimizer.step();
    }

    // Iteration bookkeeping over the surviving trajectories.
    IterationStats is;
    double iter_best = -1e300;
    for (const WorkerOut& out : outs) {
      if (!out.survived()) continue;
      const double tns = out.outcome.summary.tns;
      is.mean_reward += out.outcome.reward;
      is.mean_tns += tns;
      is.mean_steps += out.steps;
      is.mean_entropy += out.audit.mean_entropy();
      if (tns > iter_best) iter_best = tns;
      if (tns > stats.best_tns) {
        stats.best_tns = tns;
        stats.best_selection = out.selection;
        stall = -1;  // improvement this iteration
      }
    }
    const double n = static_cast<double>(survivors);
    is.mean_reward /= n;
    is.mean_tns /= n;
    is.mean_steps /= n;
    is.mean_entropy /= n;
    is.iter_best_tns = iter_best;
    is.best_tns = stats.best_tns;
    is.grad_norm = grad_norm;
    is.baseline = baseline;  // the value this iteration's advantage used
    stats.history.push_back(is);
    ++stats.iterations;

    if (config_.audit != nullptr) {
      IterationAuditRecord rec;
      rec.iteration = iter;
      rec.survivors = survivors;
      rec.poisoned = n_poisoned;
      rec.cancelled = n_cancelled;
      rec.crashed = n_crashed;
      rec.mean_reward = is.mean_reward;
      rec.mean_tns = is.mean_tns;
      rec.iter_best_tns = is.iter_best_tns;
      rec.best_tns = is.best_tns;
      rec.mean_steps = is.mean_steps;
      rec.mean_entropy = is.mean_entropy;
      rec.grad_norm = is.grad_norm;
      rec.baseline = is.baseline;
      config_.audit->on_iteration(rec);
    }

    const double iter_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_iter)
            .count();
    hist_iter_seconds.record(iter_seconds);
    if (config_.observer != nullptr) {
      const ProgressMetric metrics[] = {
          {"mean_reward", is.mean_reward}, {"mean_tns", is.mean_tns},
          {"iter_best_tns", is.iter_best_tns}, {"best_tns", is.best_tns},
          {"mean_steps", is.mean_steps},   {"mean_entropy", is.mean_entropy},
          {"grad_norm", is.grad_norm},
      };
      ProgressEvent event;
      event.phase = "train";
      event.step = "iteration";
      event.index = iter;
      event.seconds = iter_seconds;
      event.metrics = metrics;
      config_.observer->on_event(event);
    }

    if (!baseline_init) {
      baseline = is.mean_reward;
      baseline_init = true;
    } else {
      baseline = kBaselineDecay * baseline +
                 (1.0 - kBaselineDecay) * is.mean_reward;
    }

    ++stall;
    RLCCD_LOG_INFO(
        "iter %2d: mean TNS %.3f best %.3f (default %.3f) mean |sel| %.1f",
        iter, is.mean_tns, stats.best_tns, stats.default_tns, is.mean_steps);

    last_good = capture(iter + 1);
    // A checkpoint after every completed iteration.
    if (!config_.checkpoint_dir.empty()) {
      const std::string path =
          checkpoint_path(config_.checkpoint_dir, stats.iterations);
      Status s = save_checkpoint(last_good, path);
      if (s.ok()) {
        ctr_ckpt_written.increment();
        RLCCD_TRACE_INSTANT("train.checkpoint_written");
        if (config_.observer != nullptr) {
          const ProgressMetric metrics[] = {
              {"iterations", static_cast<double>(stats.iterations)}};
          ProgressEvent event;
          event.phase = "train";
          event.step = "checkpoint";
          event.index = iter;
          event.seconds = 0.0;
          event.metrics = metrics;
          config_.observer->on_event(event);
        }
        // Test hook: simulate an abrupt kill right after the checkpoint
        // landed, without taking the whole test process down.
        if (fault_fire("train_crash")) {
          RLCCD_LOG_WARN("injected crash after checkpoint %s", path.c_str());
          stats.train_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t_start)
                  .count();
          return stats;
        }
      } else {
        ctr_ckpt_failed.increment();
        RLCCD_LOG_WARN("checkpoint write failed (training continues): %s",
                       s.to_string().c_str());
      }
    }
  }

  // Final greedy decode with the trained policy; keep it when it beats the
  // best sampled trajectory (pure inference, one extra reward evaluation).
  // A cancelled run skips it: the host wants the loop gone now, and a
  // resumed run will decode after its own final iteration.
  if (!run_cancelled) {
    SelectionEnv env(&graph_, config_.overlap_threshold);
    Rng rng(config_.seed ^ 0x5EEDull);
    SelectionAudit greedy_audit;
    Policy::RolloutResult ro = policy_->rollout(
        graph_, env, rng, /*greedy=*/true, Policy::RolloutMode::Inference,
        config_.audit != nullptr ? &greedy_audit : nullptr);
    // Cached evaluation: the greedy selection often repeats the best
    // sampled trajectory, in which case this costs a probe, not a flow.
    EvalOutcome geo = evaluator_.evaluate({ro.selected});
    ++stats.flow_runs;
    if (config_.audit != nullptr) {
      RolloutAuditRecord rec;  // iteration -1 marks the greedy decode
      rec.tns = geo.summary.tns;
      rec.flow_ran = true;
      rec.poisoned = ro.poisoned;
      rec.audit = &greedy_audit;
      config_.audit->on_rollout(rec);
    }
    if (geo.summary.tns > stats.best_tns) {
      stats.best_tns = geo.summary.tns;
      stats.best_selection = ro.selected;
      RLCCD_LOG_INFO("greedy decode improved best TNS to %.3f",
                     stats.best_tns);
    }
  }

  stats.train_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return stats;
}

}  // namespace rlccd
