// Per-layer probes: each layer's public entry points called from the
// benchmark's own code on the workload's design, config and seed, timed
// with bench spans. They run only in the traced run, in a process of their
// own; nothing inside src/ is instrumented for them.
//
// A workload that never runs a layer still reports it, measured on the
// input of the workload that does: flow_quarter runs no policy, so its
// policy and trainer probes use train_batched's design; only serve_closed
// drives the daemon, so the others measure the serve layer with a short
// session of serve_closed's jobs.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/io.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "record.h"
#include "rl/checkpoint.h"
#include "rl/flow_cache.h"
#include "rl/isolation/supervisor.h"
#include "rl/isolation/wire.h"
#include "spans.h"
#include "workloads.h"

namespace rlccd::bench {

namespace {

// Median wall time of `reps` calls, each under its own bench span.
double timed(std::string_view span, int reps, const std::function<void()>& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    BenchSpan s(span);
    f();
    t.push_back(s.elapsed());
  }
  return median(std::move(t));
}

// Total time of spans named `name` in a subtree (not descending into them).
double named_total(const SpanNode& node, std::string_view name) {
  if (node.name == name) return node.total_sec;
  double sum = 0.0;
  for (const SpanNode& c : node.children) sum += named_total(c, name);
  return sum;
}

// A flow step's own time: its span minus the STA work it triggered.
double opt_self(const SpanNode* node) {
  if (node == nullptr) return 0.0;
  return node->total_sec - named_total(*node, "sta_run") -
         named_total(*node, "sta_update");
}

// -- flow layers: netlist, sta, opt, evaluator --------------------------------

void flow_probes(const Workload& w, const Design& design, std::uint64_t seed,
                 double& miss_sec) {
  const FlowConfig flow = train_config(w, design, seed).train.flow;
  {
    Netlist scratch(*design.netlist);
    emit_layer("netlist.copy_s", timed("netlist.copy", 5, [&] {
                 scratch = *design.netlist;
               }));
  }

  // The trainer builds a 64 MiB cache before its first iteration.
  emit_layer("rl.flow_cache.build_s", timed("rl.flow_cache.build", 3, [] {
               FlowOutcomeCache scratch(64);
             }));
  FlowOutcomeCache cache(64);
  RolloutEvaluator evaluator(&design, flow, &cache);
  FlowResult def;
  {
    BenchSpan span("flow.default");
    def = evaluator.evaluate_full({}, nullptr);
  }
  const SpanNode* root = def.telemetry.find_span("flow");
  double data_rounds = 0.0;
  if (root != nullptr) {
    for (const SpanNode& c : root->children) {
      if (c.name.rfind("data_round_", 0) == 0) data_rounds += opt_self(&c);
    }
  }
  emit_layer("sta.run_s", root != nullptr ? named_total(*root, "sta_run") : 0);
  emit_layer("sta.update_s",
             root != nullptr ? named_total(*root, "sta_update") : 0);
  emit_layer("sta.pin_updates", static_cast<double>(def.sta_stats.pin_updates()));
  emit_layer("opt.useful_skew_s", opt_self(def.telemetry.find_span("flow/useful_skew")));
  emit_layer("opt.data_rounds_s", data_rounds);
  emit_layer("opt.skew_touchup_s", opt_self(def.telemetry.find_span("flow/skew_touchup")));
  emit_layer("opt.final_sizing_s", opt_self(def.telemetry.find_span("flow/final_sizing")));
  emit_layer("opt.hold_fix_s", opt_self(def.telemetry.find_span("flow/hold_fix")));
  emit_layer("opt.legalize_s", opt_self(def.telemetry.find_span("flow/legalize")));
  emit_layer("opt.after_skew_tns", def.after_skew.tns);
  emit_layer("opt.final_tns", def.final_summary.tns);

  // A miss runs the flow on a pooled scratch (warmed by the default flow
  // above); the same selection again is a hit.
  std::vector<PinId> selection;
  {
    Sta sta = design.make_sta();
    sta.run();
    std::vector<PinId> violating = sta.endpoint_violations();
    Rng rng(seed ^ 0x5E1EC7ull);
    rng.shuffle(violating);
    violating.resize(std::max<std::size_t>(1, violating.size() / 40));
    selection = std::move(violating);
  }
  miss_sec = timed("rl.evaluator.miss", 1,
                   [&] { (void)evaluator.evaluate({selection}); });
  emit_layer("rl.evaluator.miss_s", miss_sec);
  emit_layer("rl.evaluator.hit_s", timed("rl.evaluator.hit", 20, [&] {
               (void)evaluator.evaluate({selection});
             }));
}

// -- policy layers: design graph, EP-GNN, decode, replay, optimizer, wire,
// checkpoint --------------------------------------------------------------------

struct PolicyProbeOut {
  // An iteration rebuilt from probes, for the coverage check against the
  // median untraced iteration: iteration 0's work (same policy, same RNG
  // streams, run warm) on the batched backend; a typical iteration on the
  // isolated one.
  double op_probe_sec = 0.0;
};

PolicyProbeOut policy_probes(const Workload& w, const Design& design,
                             std::uint64_t seed, const std::string& work_dir) {
  PolicyProbeOut out;
  const RlCcdConfig cfg = train_config(w, design, seed);
  const int workers = w.workers;

  std::unique_ptr<DesignGraph> graph;
  emit_layer("rl.design_graph.build_s", timed("rl.design_graph.build", 3, [&] {
               graph = std::make_unique<DesignGraph>(design);
             }));
  const double rho = cfg.train.overlap_threshold;
  const Policy policy(cfg.policy, cfg.policy_seed);

  {
    SelectionEnv env(graph.get(), rho);
    Tensor x;
    emit_layer("rl.design_graph.features_ms",
               1e3 * timed("rl.design_graph.features", 20, [&] {
                 x = graph->features_with_mask(env.cell_mask_flags());
               }));
    Rng rng(cfg.policy_seed);
    const EpGnn gnn(cfg.policy.gnn, rng);
    emit_layer("gnn.ep_gnn.forward_ms", 1e3 * timed("gnn.ep_gnn.forward", 10, [&] {
                 (void)gnn.forward(x, graph->adjacency(), graph->cone_matrix(),
                                   graph->endpoint_rows());
               }));
  }

  const double clone_sec =
      timed("rl.policy.clone", 10, [&] { (void)policy.clone(); });
  emit_layer("rl.policy.clone_s", clone_sec);

  // Iteration 0's streams, forked exactly as the trainer forks them.
  const Rng root(cfg.train.seed ^ 0xABCDEF12345ull);
  auto worker_rngs = [&] {
    std::vector<Rng> rngs;
    for (int i = 0; i < workers; ++i) {
      rngs.push_back(root.fork(static_cast<std::uint64_t>(i)));
    }
    return rngs;
  };

  std::vector<Policy::RolloutResult> ros;
  std::vector<SelectionAudit> audits(static_cast<std::size_t>(workers));
  const double batched_sec = timed("rl.policy.decode_batched", 2, [&] {
    std::vector<SelectionEnv> envs;
    std::vector<SelectionAudit*> audit_ptrs;
    for (int i = 0; i < workers; ++i) {
      envs.emplace_back(graph.get(), rho);
      audit_ptrs.push_back(&audits[static_cast<std::size_t>(i)]);
    }
    std::vector<Rng> rngs = worker_rngs();
    ros = policy.rollout_batched(*graph, envs, rngs, audit_ptrs);
  });
  int steps = 0;
  int lock_steps = 0;
  for (const Policy::RolloutResult& r : ros) {
    steps += r.steps;
    lock_steps = std::max(lock_steps, r.steps);
  }
  emit_layer("rl.policy.decode_batched_s", batched_sec);
  emit_layer("rl.policy.decode_step_ms",
             lock_steps > 0 ? 1e3 * batched_sec / lock_steps : 0.0);
  emit_layer("rl.policy.steps", steps);

  // Teacher-forced replay of each decoded trajectory on a fresh clone.
  std::vector<Policy> clones;
  for (int i = 0; i < workers; ++i) clones.push_back(policy.clone());
  auto replay = [&](int i) {
    SelectionEnv env(graph.get(), rho);
    Rng unused(0);
    (void)clones[static_cast<std::size_t>(i)].rollout(
        *graph, env, unused, false, Policy::RolloutMode::StepwiseBackward,
        nullptr, &ros[static_cast<std::size_t>(i)].actions);
  };
  {
    std::vector<double> t;
    for (int i = 0; i < workers; ++i) {
      BenchSpan span("rl.policy.replay_backward");
      replay(i);
      t.push_back(span.elapsed());
    }
    emit_layer("rl.policy.replay_backward_s", median(t));
  }

  // Live stepwise decode (the isolated backend's per-worker path).
  std::vector<double> stepwise;
  {
    std::vector<Rng> rngs = worker_rngs();
    for (int i = 0; i < workers; ++i) {
      Policy pol = policy.clone();
      SelectionEnv env(graph.get(), rho);
      SelectionAudit audit;
      BenchSpan span("rl.policy.decode_stepwise");
      (void)pol.rollout(*graph, env, rngs[static_cast<std::size_t>(i)], false,
                        Policy::RolloutMode::StepwiseBackward, &audit);
      stepwise.push_back(span.elapsed());
    }
    emit_layer("rl.policy.decode_stepwise_s", median(stepwise));
  }
  emit_layer("rl.policy.greedy_s", timed("rl.policy.greedy", 1, [&] {
               SelectionEnv env(graph.get(), rho);
               Rng rng(cfg.train.seed ^ 0x5EEDull);
               (void)policy.rollout(*graph, env, rng, true,
                                    Policy::RolloutMode::Inference);
             }));

  // Optimizer: clip + Adam step over replay gradients (on a clone).
  Policy opt_policy = clones.front().clone();
  std::vector<Tensor> params = opt_policy.parameters();
  {
    const std::vector<Tensor> src = clones.front().parameters();
    for (std::size_t p = 0; p < params.size(); ++p) {
      params[p].grad_mut() = src[p].grad();
    }
  }
  Adam adam(params, cfg.train.lr);
  const double optim_sec = timed("nn.optim.step", 10, [&] {
    (void)clip_grad_norm(params, cfg.train.grad_clip);
    adam.step();
  });
  emit_layer("nn.optim.step_s", optim_sec);

  // Rollout wire: a realistic worker payload (outcome, selection, gradients,
  // audit, telemetry).
  FlowOutcomeCache cache(64);
  RolloutEvaluator evaluator(&design, cfg.train.flow, &cache);
  RolloutWire wire;
  {
    BenchSpan span("rl.evaluator.warm");
    TelemetryScope scope;
    wire.outcome = evaluator.evaluate({ros.front().selected});
    wire.telemetry = scope.snapshot();
  }
  wire.steps = ros.front().steps;
  wire.selection = ros.front().selected;
  for (const Tensor& p : clones.front().parameters()) wire.grads.push_back(p.grad());
  wire.audit = audits.front();
  std::string payload;
  encode_rollout_wire(wire, payload);
  emit_layer("rl.isolation.wire_bytes", static_cast<double>(payload.size()));
  const double codec_sec = timed("rl.isolation.wire_codec", 10, [&] {
    std::string bytes;
    encode_rollout_wire(wire, bytes);
    RolloutWire back;
    (void)decode_rollout_wire(bytes, back);
  });
  emit_layer("rl.isolation.wire_codec_s", codec_sec);

  SupervisorConfig scfg;
  scfg.workers = workers;
  emit_layer("rl.isolation.fork_rtt_s", timed("rl.isolation.fork_rtt", 3, [&] {
               RolloutSupervisor sup(scfg);
               (void)sup.run([&](int) { return payload; });
             }));

  // Checkpoint of this policy's full training state.
  {
    TrainCheckpoint ckpt;
    ckpt.seed = cfg.train.seed;
    ckpt.workers = workers;
    for (const Tensor& p : opt_policy.parameters()) {
      ckpt.params.emplace_back(p.data(), p.data() + p.size());
      ckpt.param_shapes.emplace_back(p.rows(), p.cols());
    }
    ckpt.adam = adam.export_state();
    ckpt.stats.history.resize(static_cast<std::size_t>(w.iterations));
    const std::string dir = work_dir + "/ckpt";
    ::mkdir(dir.c_str(), 0755);
    const std::string path = checkpoint_path(dir, 1);
    emit_layer("rl.checkpoint.save_s", timed("rl.checkpoint.save", 3, [&] {
                 (void)save_checkpoint(ckpt, path);
               }));
    struct stat st {};
    emit_layer("rl.checkpoint.bytes",
               ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                              : 0.0);
  }

  // The stage an iteration blocks on after decoding, timed end to end:
  // every worker's replay + reward flow (threads), or every forked child's
  // stepwise decode + evaluation + encode and the parent's decode (isolated).
  double stage_sec = 0.0;
  if (!w.isolate) {
    RolloutEvaluator uncached(&design, cfg.train.flow, nullptr);
    for (int i = 0; i < workers; ++i) clones[static_cast<std::size_t>(i)] = policy.clone();
    BenchSpan span("trainer.threaded_stage");
    std::vector<std::thread> threads;
    for (int i = 0; i < workers; ++i) {
      threads.emplace_back([&, i] {
        replay(i);
        (void)uncached.evaluate({ros[static_cast<std::size_t>(i)].selected});
      });
    }
    for (std::thread& t : threads) t.join();
    stage_sec = span.elapsed();
    out.op_probe_sec =
        workers * clone_sec + batched_sec + stage_sec + optim_sec;
  } else {
    // A typical iteration rather than iteration 0: isolated iterations are
    // alike (short trajectories, mostly cache hits), so each rep decodes a
    // different iteration's streams against a warmed cache.
    for (const Policy::RolloutResult& r : ros) {
      (void)evaluator.evaluate({r.selected});
    }
    std::vector<double> stages;
    for (int rep = 0; rep < 5; ++rep) {
      BenchSpan span("trainer.isolated_stage");
      RolloutSupervisor sup(scfg);
      const std::vector<WorkerOutcome> outcomes = sup.run([&](int i) {
        TelemetryScope scope;
        Rng rng = root.fork(static_cast<std::uint64_t>(rep * 131 + i));
        Policy pol = policy.clone();
        SelectionEnv env(graph.get(), rho);
        RolloutWire wr;
        const Policy::RolloutResult r =
            pol.rollout(*graph, env, rng, false,
                        Policy::RolloutMode::StepwiseBackward, &wr.audit);
        wr.outcome = evaluator.evaluate({r.selected});
        wr.steps = r.steps;
        wr.selection = r.selected;
        for (const Tensor& p : pol.parameters()) wr.grads.push_back(p.grad());
        wr.telemetry = scope.snapshot();
        std::string bytes;
        encode_rollout_wire(wr, bytes);
        return bytes;
      });
      for (const WorkerOutcome& oc : outcomes) {
        RolloutWire back;
        if (decode_rollout_wire(oc.payload, back).ok()) {
          MetricsRegistry::global().merge_delta(back.telemetry);
        }
      }
      stages.push_back(span.elapsed());
    }
    stage_sec = median(stages);
    out.op_probe_sec = workers * clone_sec + stage_sec + optim_sec;
  }
  emit_info("stage_sec", stage_sec);
  return out;
}

// Trainer split from a short real training run, for workloads whose own
// repeat does not train in-process.
void trainer_probe(const Workload& w, const Design& design,
                   std::uint64_t seed) {
  RlCcdConfig cfg = train_config(w, design, seed);
  cfg.train.max_iterations = 2;
  cfg.train.patience = 2;
  Policy policy(cfg.policy, cfg.policy_seed);
  MetricsRegistry::global().reset();
  {
    BenchSpan span("rl.trainer.train");
    ReinforceTrainer trainer(&design, &policy, cfg.train);
    (void)trainer.train();
  }
  emit_trainer_split(MetricsRegistry::global().snapshot(), "train/iteration",
                     w.workers);
}

}  // namespace

int run_probes(const ChildOptions& o) {
  TraceRecorder::global().enable();
  SpanLog::global().enable();
  const Workload& w = *o.workload;

  Design design;
  emit_layer("designgen.generate_s",
             timed("designgen.generate", w.scale >= 0.5 ? 1 : 3, [&] {
               design = generate_design(generator_config(w));
             }));
  double miss_sec = 0.0;
  flow_probes(w, design, o.seed, miss_sec);

  // Policy context: the workload's own trainer, or train_batched's.
  const Workload& pw =
      w.kind == WorkloadKind::kFlow ? *find_workload("train_batched") : w;
  Design policy_design;
  const Design* pd = &design;
  if (&pw != &w) {
    BenchSpan span("designgen.policy_context");
    policy_design = generate_design(generator_config(pw));
    pd = &policy_design;
  }
  const PolicyProbeOut po = policy_probes(pw, *pd, o.seed, o.work_dir);
  if (w.kind != WorkloadKind::kTrain) trainer_probe(pw, *pd, o.seed);
  emit_info("op_probe_sec", w.kind == WorkloadKind::kFlow ? miss_sec
                                                          : po.op_probe_sec);

  if (w.kind != WorkloadKind::kServe) {
    BenchSpan span("serve.session");
    const ServeSession s = run_serve_session(*find_workload("serve_closed"),
                                             o.seed, o.work_dir, kServeClients,
                                             1);
    if (!s.error.empty()) {
      emit_check("serve_probe", false, s.error);
    } else {
      emit_serve_layers(s);
    }
  }

  TraceRecorder::global().disable();
  std::fprintf(stderr, "-- %.*s probes: bench span self time --\n%s",
               static_cast<int>(w.name.size()), w.name.data(),
               SpanLog::global().self_time_table().c_str());
  write_trace(o.trace_out);
  std::fflush(stdout);
  return 0;
}

}  // namespace rlccd::bench
