// Developer smoke test: end-to-end RL-CCD training on one block.
//
//   smoke_rl [flags] [block] [scale] [iters]
//
// The flags are the twelve shared ones (tools/common_args.h, `smoke_rl
// --help` lists them), as in rlccd_cli: --trace-json records a Chrome-trace
// timeline, --audit-jsonl streams RL decision provenance,
// --metrics-json/--metrics-csv dump the telemetry registry,
// --checkpoint-dir/--resume/--rollout-deadline/--isolate-workers/
// --max-worker-restarts drive fault tolerance, and --flow-cache-mb sizes
// the rollout memoization cache. Feed the artifacts to rlccd_report.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/telemetry.h"
#include "core/rlccd.h"
#include "designgen/blocks.h"
#include "rl/audit.h"
#include "tools/common_args.h"

using namespace rlccd;

int main(int argc, char** argv) {
  set_log_level(LogLevel::Info);
  std::string block_name = "block11";
  double scale = 0.01;
  int iters = 12;
  tools::CommonArgs common;
  std::vector<tools::Arg> table = {
      {"[block]", nullptr, "Table II block name, block1..block19",
       &block_name, {}, block_known},
      {"[scale]", nullptr, "share of the paper's cell count, in (0, 1]",
       &scale, tools::kScale},
      {"[iters]", nullptr, "REINFORCE iterations, also the patience", &iters,
       tools::kCount},
  };
  tools::add_common_flags(table, common);
  if (auto rc = tools::parse_args(argc, argv, table)) return *rc;

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
