// The flags the training tools share, as entries of the one flag table
// (tools/flags.h), and the artifact epilogue the tools share.
//
// rlccd_cli and smoke_rl take all twelve: the flight-recorder artifacts
// (--metrics-json, --metrics-csv, --metrics-prom, --trace-json,
// --audit-jsonl, --progress), the fault-tolerance knobs (--checkpoint-dir,
// --resume, --rollout-deadline, --isolate-workers, --max-worker-restarts)
// and the flow-outcome cache budget (--flow-cache-mb). smoke_flow and
// rlccd_serve take the few artifact flags they write. add_common_flags()
// appends the entries to a tool's table; apply_train_args() maps the values
// onto a TrainConfig.
//
// open_common_artifacts() runs before the command (arms the trace recorder,
// opens the audit stream), write_common_artifacts() after it: each metrics
// document and the Chrome trace is written whole through atomic_write_file,
// then the audit stream is closed.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rl/audit.h"
#include "rl/trainer.h"
#include "tools/flags.h"

namespace rlccd {
namespace tools {

struct CommonArgs {
  std::string metrics_json;
  std::string metrics_csv;
  std::string metrics_prom;
  std::string trace_json;
  std::string audit_jsonl;
  bool progress = false;
  std::string checkpoint_dir;
  bool resume = false;
  double rollout_deadline_sec = 0.0;
  bool isolate_workers = false;
  int max_worker_restarts = -1;  // < 0: keep the TrainConfig default
  long flow_cache_mb = -1;       // < 0: keep the TrainConfig default; 0: off
};

// Appends the shared flags, filling `args`, to `table`; `only`, when not
// empty, names the ones the tool takes.
void add_common_flags(std::vector<Arg>& table, CommonArgs& args,
                      std::initializer_list<std::string_view> only = {});

// Applies the training-related flags onto a TrainConfig. Sentinel values
// (negative max_worker_restarts / flow_cache_mb) leave the config's
// defaults untouched.
void apply_train_args(const CommonArgs& args, TrainConfig& train);

// Pre-command artifact setup: arms the Chrome-trace recorder when
// --trace-json was given and opens the --audit-jsonl stream (writer left
// null otherwise). Returns false (with a stderr diagnostic) when the audit
// file cannot be opened.
bool open_common_artifacts(const CommonArgs& args,
                           std::unique_ptr<JsonlAuditWriter>& audit);

// Post-command artifact writing: telemetry JSON/CSV/Prometheus, the Chrome
// trace, and the audit close, each announced on stdout. Returns false (with
// a stderr diagnostic) when any requested artifact cannot be written.
bool write_common_artifacts(const CommonArgs& args, JsonlAuditWriter* audit);

}  // namespace tools
}  // namespace rlccd
