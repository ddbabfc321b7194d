// Rollout-memoization benchmark: what the flow-outcome cache buys.
//
// Two measurements, both against the same generated design:
//   * replay — a fixed pool of endpoint selections evaluated repeatedly
//     through RolloutEvaluator, cached vs uncached. This isolates the
//     cache's mechanical win (a probe vs a full placement flow) with a
//     hit pattern the trainer's converging policy approaches.
//   * train — a full REINFORCE run with the default cache vs
//     --flow-cache-mb 0, reporting wall-clock and the realized hit rate
//     (policy-dependent, so the honest end-to-end number).
//
// The ratios land in BENCH_rollout_cache.json; rlccd_report
// --max-work-ratio-regress guards the hit rate in CI, and the speedups and
// absolute times are informational.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "rl/design_graph.h"
#include "rl/evaluator.h"
#include "rl/flow_cache.h"
#include "rl/trainer.h"

namespace rlccd {
namespace {

double now_minus(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ReplayCost {
  double seconds = 0.0;
  double hit_rate = 0.0;
};

// Evaluates `rounds` passes over the selection pool; with a cache, every
// pass after the first is all hits.
ReplayCost measure_replay(const Design& d,
                          const std::vector<std::vector<PinId>>& pool,
                          int rounds, bool cached) {
  FlowOutcomeCache cache(64);
  RolloutEvaluator ev(
      &d, default_flow_config(d.netlist->num_real_cells(), d.clock_period),
      cached ? &cache : nullptr);
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (const std::vector<PinId>& sel : pool) {
      (void)ev.evaluate(EvalRequest{sel});
    }
  }
  ReplayCost cost;
  cost.seconds = now_minus(t0);
  cost.hit_rate = cached ? cache.stats().hit_rate() : 0.0;
  return cost;
}

struct TrainCost {
  double seconds = 0.0;
  double hit_rate = 0.0;
};

TrainCost measure_training(const Design& d, const bench::BenchTier& t,
                           std::size_t flow_cache_mb) {
  Policy policy(PolicyConfig{}, 4);
  TrainConfig cfg;
  cfg.workers = t.workers;
  cfg.max_iterations = t.max_iterations;
  cfg.min_iterations = 1;
  cfg.patience = t.patience;
  cfg.flow = default_flow_config(d.netlist->num_real_cells(), d.clock_period);
  cfg.flow_cache_mb = flow_cache_mb;
  ReinforceTrainer trainer(&d, &policy, cfg);
  auto t0 = std::chrono::steady_clock::now();
  (void)trainer.train();
  TrainCost cost;
  cost.seconds = now_minus(t0);
  if (trainer.flow_cache() != nullptr) {
    cost.hit_rate = trainer.flow_cache()->stats().hit_rate();
  }
  return cost;
}

}  // namespace
}  // namespace rlccd

int main(int argc, char** argv) {
  using namespace rlccd;
  set_log_level(LogLevel::Warn);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  bench::BenchTier t = bench::tier();
  bench::print_header("rollout memoization (flow-outcome cache)");

  GeneratorConfig gcfg;
  gcfg.name = "cachebench";
  gcfg.target_cells = 800;
  gcfg.seed = 11;
  gcfg.clock_tightness = 0.72;
  Design d = generate_design(gcfg);

  DesignGraph graph(d);
  const std::vector<PinId>& violating = graph.violating();
  std::printf("design: %zu cells, %zu violating endpoints\n\n",
              d.netlist->num_real_cells(), violating.size());
  if (violating.empty()) {
    std::fprintf(stderr, "no violating endpoints; bench needs a tighter "
                         "clock\n");
    return 1;
  }

  // Selection pool: nested prefixes of the violating set — distinct keys
  // with realistic flow cost.
  std::vector<std::vector<PinId>> pool;
  const std::size_t pool_size = std::min<std::size_t>(4, violating.size());
  for (std::size_t n = 1; n <= pool_size; ++n) {
    pool.emplace_back(violating.begin(),
                      violating.begin() + static_cast<std::ptrdiff_t>(n));
  }
  const int rounds = t.max_iterations >= 8 ? 6 : 4;

  ReplayCost uncached = measure_replay(d, pool, rounds, /*cached=*/false);
  ReplayCost cached = measure_replay(d, pool, rounds, /*cached=*/true);
  std::printf("replay (%zu selections x %d rounds):\n", pool.size(), rounds);
  std::printf("  uncached : %8.3f ms\n", 1e3 * uncached.seconds);
  std::printf("  cached   : %8.3f ms  (hit rate %.1f%%)\n",
              1e3 * cached.seconds, 100.0 * cached.hit_rate);
  std::printf("  speedup %.2fx\n\n", uncached.seconds / cached.seconds);

  TrainCost train_off = measure_training(d, t, /*flow_cache_mb=*/0);
  TrainCost train_on = measure_training(d, t, /*flow_cache_mb=*/64);
  std::printf("training (%d workers, %d iterations):\n", t.workers,
              t.max_iterations);
  std::printf("  uncached : %8.3f s\n", train_off.seconds);
  std::printf("  cached   : %8.3f s  (hit rate %.1f%%)\n", train_on.seconds,
              100.0 * train_on.hit_rate);
  std::printf("  speedup %.2fx\n", train_off.seconds / train_on.seconds);

  if (!json_path.empty()) {
    // Only the replay metrics are CI-guarded ratios ("speedup"/"hit_rate"
    // names): their hit pattern is structural (every round after the first
    // is all hits), so they are stable across hardware. The training
    // numbers depend on which selections the policy happens to resample —
    // honest but run-dependent — so their names keep them informational.
    const std::pair<const char*, double> metrics[] = {
        {"replay_uncached_ms", 1e3 * uncached.seconds},
        {"replay_cached_ms", 1e3 * cached.seconds},
        {"replay_speedup", uncached.seconds / cached.seconds},
        {"replay_hit_rate", cached.hit_rate},
        {"train_uncached_sec", train_off.seconds},
        {"train_cached_sec", train_on.seconds},
        {"train_time_factor", train_off.seconds / train_on.seconds},
        {"train_hit_pct", 100.0 * train_on.hit_rate},
    };
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"rollout_cache\",\"metrics\":{");
    bool first = true;
    for (const auto& [name, value] : metrics) {
      std::fprintf(f, "%s\"%s\":%.6f", first ? "" : ",", name, value);
      first = false;
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
