#include "workloads.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "common/io.h"
#include "common/ipc.h"
#include "common/json.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "designgen/blocks.h"
#include "record.h"
#include "rl/flow_cache.h"
#include "serve/client.h"
#include "spans.h"

namespace rlccd::bench {

namespace {

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

void append_summary(std::string& bytes, const TimingSummary& s) {
  ipc_append_pod(bytes, s.tns);
  ipc_append_pod(bytes, s.wns);
  ipc_append_pod(bytes, static_cast<std::uint64_t>(s.nve));
  ipc_append_pod(bytes, s.worst_hold_slack);
}

bool same_summary(const TimingSummary& a, const TimingSummary& b) {
  std::string x, y;
  append_summary(x, a);
  append_summary(y, b);
  return x == y;
}

// Collects the trainer's per-iteration events: the wall-clock at which each
// fired and the iteration's own duration.
class IterationLog : public ProgressObserver {
 public:
  void on_event(const ProgressEvent& event) override {
    if (event.phase != "train" || event.step != "iteration") return;
    seconds.push_back(event.seconds);
    ended_at.push_back(now_sec());
  }
  std::vector<double> seconds;
  std::vector<double> ended_at;
};

// The flow cache's hit rate as per-layer metrics, with its base.
void emit_cache_layers(double hits, double misses) {
  emit_layer("rl.flow_cache.probes", hits + misses);
  emit_layer("rl.flow_cache.hit_pct",
             hits + misses > 0.0 ? 100.0 * hits / (hits + misses) : 0.0);
}

// From the process's own registry (train and flow repeats).
void emit_registry_cache_layers() {
  MetricsRegistry& reg = MetricsRegistry::global();
  emit_cache_layers(static_cast<double>(reg.counter("train.cache_hits").value()),
                    static_cast<double>(reg.counter("train.cache_misses").value()));
}

// -- train --------------------------------------------------------------------

int train_repeat(const ChildOptions& o) {
  const Workload& w = *o.workload;
  const double t0 = now_sec();
  Design design = [&] {
    BenchSpan span("designgen.generate");
    return generate_design(generator_config(w));
  }();
  RlCcdConfig cfg = train_config(w, design, o.seed);
  IterationLog log;
  cfg.observer = &log;
  RlCcdResult r;
  {
    BenchSpan span("rlccd.run");
    RlCcd agent(&design, cfg);
    r = agent.run();
  }
  const double t_end = now_sec();
  if (log.seconds.empty()) {
    emit_check("iterations_ran", false, "no training iteration completed");
    return 0;
  }
  const double iter0_start = log.ended_at.front() - log.seconds.front();
  emit_value("setup_s", iter0_start - t0);
  emit_value("run_s", t_end - iter0_start);
  for (double s : log.seconds) emit_value("op", s);

  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t lost = reg.counter("train.trajectories_poisoned").value() +
                             reg.counter("train.rollouts_cancelled").value() +
                             reg.counter("train.workers_lost").value();
  emit_value("attempted", static_cast<double>(w.workers) *
                              static_cast<double>(w.iterations));
  emit_value("failed", static_cast<double>(lost));

  // Everything the run decided: a repeat in a fresh process must reproduce
  // it bit for bit.
  std::string bytes;
  for (const IterationStats& is : r.train.history) {
    for (double v : {is.mean_reward, is.mean_tns, is.iter_best_tns, is.best_tns,
                     is.mean_steps, is.mean_entropy, is.grad_norm,
                     is.baseline}) {
      ipc_append_pod(bytes, v);
    }
  }
  for (PinId pin : r.selection) ipc_append_pod(bytes, pin.value);
  append_summary(bytes, r.default_flow.final_summary);
  append_summary(bytes, r.rl_flow.final_summary);
  ipc_append_pod(bytes, r.rl_flow.power_final.total());
  emit_digest("train_result", hex32(crc32(bytes)));
  emit_check("iterations_ran",
             r.train.iterations == w.iterations,
             std::to_string(r.train.iterations) + " of " +
                 std::to_string(w.iterations) + " iterations");
  emit_check("rl_tns_not_worse",
             r.rl_flow.final_summary.tns >= r.default_flow.final_summary.tns,
             "rl " + std::to_string(r.rl_flow.final_summary.tns) +
                 " default " +
                 std::to_string(r.default_flow.final_summary.tns));

  emit_info("cells", static_cast<double>(design.netlist->num_real_cells()));
  const double def_power = r.default_flow.power_final.total();
  emit_info("tns_gain_pct", r.tns_gain_pct());
  emit_info("nve_gain_pct", r.nve_gain_pct());
  emit_info("power_delta_pct",
            def_power > 0.0
                ? 100.0 * (r.rl_flow.power_final.total() - def_power) /
                      def_power
                : 0.0);

  const std::uint64_t hits = reg.counter("train.cache_hits").value();
  const std::uint64_t probes = hits + reg.counter("train.cache_misses").value();
  emit_info("cache_hits", static_cast<double>(hits));
  emit_info("cache_probes", static_cast<double>(probes));
  if (o.traced) {
    emit_trainer_split(reg.snapshot(), "rlccd/train/iteration", w.workers);
    emit_registry_cache_layers();
  }
  return 0;
}

// -- flow ---------------------------------------------------------------------

// Distinct endpoint subsets of the pristine violating endpoints, selection
// 0 empty (the default flow) and selection i holding i/(count-1) of 5%. The
// sizes are fixed so every seed asks for the same amount of margin work;
// the seed picks the members.
std::vector<std::vector<PinId>> flow_selections(
    const std::vector<PinId>& violating, std::uint64_t seed, int count) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xF1);
  std::vector<std::vector<PinId>> out(static_cast<std::size_t>(count));
  std::vector<PinId> pool = violating;
  for (int i = 1; i < count; ++i) {
    const double frac = 0.05 * i / (count - 1);
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(frac * static_cast<double>(pool.size())));
    rng.shuffle(pool);
    out[static_cast<std::size_t>(i)].assign(pool.begin(),
                                            pool.begin() + static_cast<long>(n));
  }
  return out;
}

int flow_repeat(const ChildOptions& o) {
  const Workload& w = *o.workload;
  const double t0 = now_sec();
  Design design = [&] {
    BenchSpan span("designgen.generate");
    return generate_design(generator_config(w));
  }();
  std::vector<PinId> violating;
  double begin_tns = 0.0;
  {
    BenchSpan span("sta.pristine");
    Sta sta = design.make_sta();
    sta.run();
    violating = sta.endpoint_violations();
    begin_tns = sta.summary().tns;
  }
  const FlowConfig flow = train_config(w, design, o.seed).train.flow;
  FlowOutcomeCache cache(64);
  RolloutEvaluator evaluator(&design, flow, &cache);
  emit_value("setup_s", now_sec() - t0);

  // The last `workers` selections warm each thread up untimed; being
  // distinct, they leave no cache line a timed selection could hit.
  const int count = w.workers * kFlowEvalsPerThread;
  const std::vector<std::vector<PinId>> selections =
      flow_selections(violating, o.seed, count + w.workers);
  std::vector<EvalOutcome> outcomes(static_cast<std::size_t>(count));
  std::vector<double> seconds(static_cast<std::size_t>(count));
  auto on_threads = [&](const std::function<void(int)>& body) {
    std::vector<std::thread> threads;
    for (int t = 0; t < w.workers; ++t) threads.emplace_back(body, t);
    for (std::thread& th : threads) th.join();
  };
  const double t_warm = now_sec();
  on_threads([&](int t) {
    BenchSpan span("rl.evaluator.warm_up");
    (void)evaluator.evaluate({selections[static_cast<std::size_t>(count + t)]});
  });
  emit_info("warm_up_s", now_sec() - t_warm);
  const double t_run = now_sec();
  on_threads([&](int t) {
    for (int k = 0; k < kFlowEvalsPerThread; ++k) {
      const auto i = static_cast<std::size_t>(k * w.workers + t);
      BenchSpan span("rl.evaluator.evaluate");
      outcomes[i] = evaluator.evaluate({selections[i]});
      seconds[i] = span.elapsed();
    }
  });
  emit_value("run_s", now_sec() - t_run);
  for (double s : seconds) emit_value("op", s);

  int failed = 0;
  std::string bytes;
  double best_tns = outcomes[0].summary.tns;
  for (const EvalOutcome& oc : outcomes) {
    if (oc.cancelled || !std::isfinite(oc.summary.tns)) ++failed;
    append_summary(bytes, oc.summary);
    best_tns = std::max(best_tns, oc.summary.tns);
  }
  emit_value("attempted", count);
  emit_value("failed", failed);
  emit_digest("flow_outcomes", hex32(crc32(bytes)));

  // The concurrent, cached result of selection 0 must equal a serial,
  // uncached re-evaluation bit for bit.
  RolloutEvaluator serial(&design, flow, nullptr);
  const EvalOutcome again = serial.evaluate({selections[0]});
  emit_check("serial_matches_concurrent",
             same_summary(again.summary, outcomes[0].summary),
             "tns " + std::to_string(again.summary.tns) + " vs " +
                 std::to_string(outcomes[0].summary.tns));
  emit_info("cells", static_cast<double>(design.netlist->num_real_cells()));
  emit_info("violating_endpoints", static_cast<double>(violating.size()));
  emit_info("begin_tns", begin_tns);
  emit_info("default_tns", outcomes[0].summary.tns);
  const double def = std::abs(outcomes[0].summary.tns);
  emit_info("tns_gain_pct",
            def > 0.0 ? 100.0 * (best_tns - outcomes[0].summary.tns) / def
                      : 0.0);
  if (o.traced) emit_registry_cache_layers();
  return 0;
}

// -- serve --------------------------------------------------------------------

pid_t spawn_daemon(const std::string& log_path, int workers) {
  const std::string workers_arg = std::to_string(workers);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
  ::execl(RLCCD_SERVE_BIN, RLCCD_SERVE_BIN, "--socket", "serve.sock", "--root",
          "root", "--workers", workers_arg.c_str(), static_cast<char*>(nullptr));
  std::_Exit(127);
}

// Waits for the daemon to exit after a shutdown request; SIGKILLs it when
// it overstays `timeout_sec`.
void reap_daemon(pid_t pid, double timeout_sec) {
  const double deadline = now_sec() + timeout_sec;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) return;
    if (now_sec() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// Starts a daemon and times spawn-to-hello; returns -1 on failure. Waits
// for the socket file at 1 ms granularity first: the client's own connect
// retry sleeps 50 ms, which would round every start up to that.
pid_t start_daemon(const std::string& log_path, int workers,
                   serve::ServeClient& client, double& setup_sec,
                   std::string& error) {
  ::unlink("serve.sock");
  const double t0 = now_sec();
  const pid_t pid = spawn_daemon(log_path, workers);
  if (pid < 0) {
    error = "fork failed";
    return -1;
  }
  struct stat st {};
  while (::stat("serve.sock", &st) != 0 && now_sec() - t0 < 20.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status s = client.connect("serve.sock", 20.0);
  if (!s.ok()) {
    error = "connect: " + s.to_string();
    ::kill(pid, SIGKILL);
    reap_daemon(pid, 5.0);
    return -1;
  }
  setup_sec = now_sec() - t0;
  return pid;
}

void stop_daemon(pid_t pid, serve::ServeClient& client) {
  (void)client.shutdown();
  client.close();
  reap_daemon(pid, 30.0);
}

int serve_repeat(const ChildOptions& o) {
  const Workload& w = *o.workload;
  ServeSession s = run_serve_session(w, o.seed, o.work_dir, kServeClients,
                                     kServeJobsPerClient);
  if (!s.error.empty()) {
    emit_check("serve_transport", false, s.error);
    return 0;
  }
  emit_value("setup_s", median(s.setup_sec));
  emit_value("run_s", s.run_sec);
  for (double v : s.job_sec) emit_value("op", v);

  int failed = 0;
  bool all_done = true;
  std::map<std::uint64_t, std::uint32_t> digest_by_seed;
  bool digests_agree = true;
  double gain_sum = 0.0;
  for (std::size_t i = 0; i < s.statuses.size(); ++i) {
    const serve::JobStatus& st = s.statuses[i];
    const bool ok = s.accepted[i] != 0 && st.state == serve::JobState::kDone &&
                    st.attempts == 1;
    if (!ok) {
      ++failed;
      all_done = false;
      continue;
    }
    auto [it, inserted] =
        digest_by_seed.emplace(s.specs[i].seed, st.result_digest);
    if (!inserted && it->second != st.result_digest) digests_agree = false;
    if (st.default_tns != 0.0) {
      gain_sum += 100.0 * (st.best_tns - st.default_tns) /
                  std::abs(st.default_tns);
    }
  }
  emit_value("attempted", static_cast<double>(s.statuses.size()));
  emit_value("failed", failed);
  emit_check("jobs_done_first_attempt", all_done,
             std::to_string(failed) + " of " +
                 std::to_string(s.statuses.size()) + " jobs failed");
  emit_check("same_seed_same_digest", digests_agree,
             std::to_string(digest_by_seed.size()) + " seeds");
  std::string bytes;
  for (const auto& [seed, digest] : digest_by_seed) {
    ipc_append_pod(bytes, seed);
    ipc_append_pod(bytes, digest);
  }
  emit_digest("serve_results", hex32(crc32(bytes)));
  emit_info("tns_gain_pct",
            s.statuses.empty()
                ? 0.0
                : gain_sum / static_cast<double>(s.statuses.size()));

  if (o.traced) {
    emit_serve_layers(s);
    // The job children's cache counters, merged up into the daemon.
    JsonValue stats;
    if (JsonValue::parse(s.stats_json, stats).ok()) {
      const JsonValue* cache = stats.find("cache");
      if (cache != nullptr) {
        emit_cache_layers(cache->number_or("hits", 0.0),
                          cache->number_or("misses", 0.0));
      }
    }
  }
  return 0;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}
GeneratorConfig generator_config(const Workload& w) {
  return to_generator_config(find_block(std::string(w.block)), w.scale);
}

RlCcdConfig train_config(const Workload& w, const Design& design,
                         std::uint64_t seed) {
  RlCcdConfig cfg = RlCcdConfig::for_design(design);
  cfg.train.workers = w.workers;
  cfg.train.max_iterations = w.iterations;
  cfg.train.patience = w.iterations;  // fixed length: no early stop
  cfg.train.isolate_workers = w.isolate;
  cfg.train.seed = seed;
  cfg.policy_seed = 41 + seed;  // seed 1 keeps the default policy seed 42
  return cfg;
}

namespace {

// The serve job a closed-loop client submits as its k-th job.
serve::JobSpec serve_job_spec(const Workload& w, std::uint64_t seed, int k) {
  serve::JobSpec spec;
  spec.session = "bench";
  spec.kind = serve::JobKind::kTrain;
  spec.block = std::string(w.block);
  spec.scale = w.scale;
  spec.iters = w.iterations;
  spec.rollout_workers = w.workers;
  spec.seed = seed + static_cast<std::uint64_t>(k % kServeSeeds);
  return spec;
}

}  // namespace

ServeSession run_serve_session(const Workload& w, std::uint64_t seed,
                               const std::string& work_dir, int clients,
                               int jobs_per_client) {
  ServeSession s;
  // Relative socket path: an absolute one under a deep checkout could pass
  // the sun_path limit.
  if (::chdir(work_dir.c_str()) != 0) {
    s.error = "chdir " + work_dir + ": " + std::strerror(errno);
    return s;
  }
  const std::string log_path = "daemon.log";
  serve::ServeClient control;
  pid_t daemon = -1;
  // Set-up is timed three times (two throwaway daemons, then the one the
  // session uses); the repeat reports the median.
  for (int start = 0; start < 3; ++start) {
    double setup = 0.0;
    BenchSpan span("serve.start");
    daemon = start_daemon(log_path, kServeSlots, control, setup,
                          s.error);
    if (daemon < 0) return s;
    s.setup_sec.push_back(setup);
    if (start < 2) stop_daemon(daemon, control);
  }

  const int total = clients * jobs_per_client;
  s.job_sec.assign(static_cast<std::size_t>(total), 0.0);
  s.submit_sec.assign(static_cast<std::size_t>(total), 0.0);
  s.specs.resize(static_cast<std::size_t>(total));
  s.statuses.resize(static_cast<std::size_t>(total));
  s.accepted.assign(static_cast<std::size_t>(total), 0);
  std::vector<std::string> errors(static_cast<std::size_t>(clients));
  const double t_run = now_sec();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::ServeClient client;
        Status cs = client.connect("serve.sock", 20.0);
        if (!cs.ok()) {
          errors[static_cast<std::size_t>(c)] = cs.to_string();
          return;
        }
        for (int j = 0; j < jobs_per_client; ++j) {
          const int k = j * clients + c;
          const auto i = static_cast<std::size_t>(k);
          s.specs[i] = serve_job_spec(w, seed, k);
          BenchSpan job_span("serve.job");
          serve::SubmitReply reply;
          Status st;
          {
            BenchSpan span("serve.submit");
            st = client.submit(s.specs[i], reply);
            s.submit_sec[i] = span.elapsed();
          }
          if (st.ok() && reply.accepted) {
            s.accepted[i] = 1;
            BenchSpan span("serve.wait");
            st = client.wait(reply.job_id, s.statuses[i], 120.0);
          }
          s.job_sec[i] = job_span.elapsed();
          if (!st.ok()) {
            errors[static_cast<std::size_t>(c)] = st.to_string();
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  s.run_sec = now_sec() - t_run;
  for (const std::string& e : errors) {
    if (!e.empty() && s.error.empty()) s.error = e;
  }
  Status ss = control.stats_json(s.stats_json);
  if (!ss.ok() && s.error.empty()) s.error = "stats: " + ss.to_string();
  stop_daemon(daemon, control);
  return s;
}

void emit_trainer_split(const TelemetrySnapshot& snap,
                        const std::string& iteration_path, int workers) {
  auto total = [&](const std::string& path) {
    const SpanNode* node = snap.find_span(path);
    return node != nullptr ? node->total_sec : 0.0;
  };
  const double iterations = total(iteration_path);
  auto pct = [&](double sec) {
    return iterations > 0.0 ? 100.0 * sec / iterations : 0.0;
  };
  emit_layer("rl.trainer.rollout_batched_pct",
             pct(total(iteration_path + "/rollout_batched")));
  emit_layer("rl.trainer.rollout_thread_pct", pct(total("rollout") / workers));
  emit_layer("rl.trainer.flow_thread_pct",
             pct(total("rollout/flow") / workers));
}

void emit_serve_layers(const ServeSession& s) {
  emit_layer("serve.submit_rtt_ms", 1e3 * median(s.submit_sec));
  JsonValue stats;
  if (!JsonValue::parse(s.stats_json, stats).ok()) return;
  // Means from the daemon's exact sum and count: its quantiles are
  // interpolated inside power-of-two buckets, too coarse to move by 10%.
  const JsonValue* hists = stats.find("histograms");
  auto mean = [&](const char* name) {
    const JsonValue* h = hists != nullptr ? hists->find(name) : nullptr;
    const double n = h != nullptr ? h->number_or("count", 0.0) : 0.0;
    return n > 0.0 ? h->number_or("sum", 0.0) / n : 0.0;
  };
  emit_layer("serve.queue_wait_mean_s", mean("serve.queue_wait_sec"));
  emit_layer("serve.job_run_mean_s", mean("serve.job_run_sec"));
  const JsonValue* jobs = stats.find("jobs");
  emit_layer("serve.jobs_retried",
             jobs != nullptr ? jobs->number_or("retried", 0.0) : 0.0);
}

void write_trace(const std::string& path) {
  std::string json = TraceRecorder::global().to_chrome_json();
  const std::string bench =
      SpanLog::global().chrome_events(1, TraceRecorder::global().t0_sec());
  if (!bench.empty()) {
    // Splice the bench spans into the library's event array ("...]}").
    const bool empty_array = json.size() >= 3 &&
                             json.compare(json.size() - 3, 3, "[]}") == 0;
    json.insert(json.size() - 2, empty_array ? bench : "," + bench);
  }
  Status s = atomic_write_file(path, json);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_e2e: cannot write %s: %s\n", path.c_str(),
                 s.to_string().c_str());
  }
}

int run_repeat(const ChildOptions& o) {
  if (o.traced) {
    TraceRecorder::global().enable();
    SpanLog::global().enable();
  }
  int rc = 0;
  switch (o.workload->kind) {
    case WorkloadKind::kTrain:
      rc = train_repeat(o);
      break;
    case WorkloadKind::kFlow:
      rc = flow_repeat(o);
      break;
    case WorkloadKind::kServe:
      rc = serve_repeat(o);
      break;
  }
  if (o.traced) {
    TraceRecorder::global().disable();
    std::fprintf(stderr, "-- %.*s traced repeat: bench span self time --\n%s",
                 static_cast<int>(o.workload->name.size()),
                 o.workload->name.data(),
                 SpanLog::global().self_time_table().c_str());
    write_trace(o.trace_out);
  }
  std::fflush(stdout);
  return rc;
}

}  // namespace rlccd::bench
