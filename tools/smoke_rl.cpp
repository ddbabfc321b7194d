// Developer smoke test: end-to-end RL-CCD training on one block.
//
//   smoke_rl [block] [scale] [iters] [common flags...]
//
// The shared flags (tools/common_args.h, `smoke_rl --help` lists them)
// mirror rlccd_cli: --trace-json records a Chrome-trace timeline,
// --audit-jsonl streams RL decision provenance,
// --metrics-json/--metrics-csv dump the telemetry registry,
// --checkpoint-dir/--resume/--rollout-deadline/--isolate-workers/
// --max-worker-restarts drive fault tolerance, and --flow-cache-mb sizes
// the rollout memoization cache. Feed the artifacts to rlccd_report.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/log.h"
#include "common/telemetry.h"
#include "core/rlccd.h"
#include "designgen/blocks.h"
#include "rl/audit.h"
#include "tools/common_args.h"

using namespace rlccd;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out, "usage: smoke_rl [block] [scale] [iters] %s\n",
               tools::common_usage_fragment().c_str());
  tools::print_common_help(out);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Info);
  std::string block_name = "block11";
  double scale = 0.01;
  int iters = 12;
  tools::CommonArgs common;
  int positional = 0;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    }
    if (tools::parse_common_flag(argc, argv, i, common, ok)) {
      if (!ok) return 2;
      continue;
    }
    if (positional == 0) {
      block_name = argv[i];
      ++positional;
    } else if (positional == 1) {
      scale = std::atof(argv[i]);
      ++positional;
    } else if (positional == 2) {
      iters = std::atoi(argv[i]);
      ++positional;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      usage(stderr);
      return 2;
    }
  }

  std::unique_ptr<JsonlAuditWriter> audit;
  if (!tools::open_common_artifacts(common, audit)) return 1;

  Design design =
      generate_design(to_generator_config(find_block(block_name), scale));
  RlCcdConfig cfg = RlCcdConfig::for_design(design);
  cfg.train.max_iterations = iters;
  // Smoke runs are fixed-length: the requested iteration count doubles as
  // the patience so early stopping never cuts the run short — successive
  // smoke invocations do comparable work and exercise the late (converged)
  // sampling phase where rollout memoization pays off.
  cfg.train.patience = iters;
  cfg.train.workers = 8;
  tools::apply_train_args(common, cfg.train);
  if (audit != nullptr) cfg.audit = audit.get();

  RlCcd agent(&design, cfg);
  RlCcdResult r = agent.run();

  std::printf("\n=== %s (%zu cells) ===\n", design.name.c_str(),
              design.netlist->num_real_cells());
  std::printf("begin   TNS %9.3f\n", r.train.begin_tns);
  std::printf("default TNS %9.3f NVE %zu\n", r.default_flow.final_summary.tns,
              r.default_flow.final_summary.nve);
  std::printf("RL-CCD  TNS %9.3f NVE %zu (|sel|=%zu)  gain %.1f%% TNS, "
              "%.1f%% NVE, runtime x%.1f\n",
              r.rl_flow.final_summary.tns, r.rl_flow.final_summary.nve, r.selection.size(),
              r.tns_gain_pct(), r.nve_gain_pct(), r.runtime_factor);
  // Rollout memoization summary (train.cache_* carry the same values into
  // --metrics-json for rlccd_report).
  {
    MetricsRegistry& reg = MetricsRegistry::global();
    const std::uint64_t hits = reg.counter("train.cache_hits").value();
    const std::uint64_t misses = reg.counter("train.cache_misses").value();
    const std::uint64_t probes = hits + misses;
    std::printf("cache   %llu hits / %llu probes (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(probes),
                probes > 0 ? 100.0 * static_cast<double>(hits) /
                                 static_cast<double>(probes)
                           : 0.0);
  }

  if (!tools::write_common_artifacts(common, audit.get())) return 1;
  return 0;
}
