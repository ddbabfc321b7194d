// Child-process side of bench_e2e: one repeat of a workload, or the
// per-layer probes, run in a fresh process and reported through record.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog.h"
#include "core/rlccd.h"
#include "serve/protocol.h"

namespace rlccd::bench {

struct ChildOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::string work_dir;   // private scratch directory of this process
  bool traced = false;    // TraceRecorder + bench spans on
  std::string trace_out;  // Chrome trace path (traced only)
};

// The workload's design: its Table II block at the workload's scale, with
// the block's own generator seed. The benchmark seed varies what runs on
// the design (trainer and policy seeds, flow selections, serve job seeds),
// not the design itself: designs from different generator seeds differ in
// size of work by far more than any bound could absorb.
GeneratorConfig generator_config(const Workload& w);

// The trainer configuration a train workload (or a serve job of the serve
// workload) runs with on `design`.
RlCcdConfig train_config(const Workload& w, const Design& design,
                         std::uint64_t seed);

// One closed-loop session against a freshly spawned rlccd_serve daemon:
// `clients` threads each run `jobs_per_client` submit + wait calls.
struct ServeSession {
  std::vector<double> setup_sec;   // spawn to hello, per daemon start
  double run_sec = 0.0;            // the closed loop's wall time
  std::vector<double> job_sec;     // submit to terminal status
  std::vector<double> submit_sec;  // submit round trip
  std::vector<serve::JobSpec> specs;
  std::vector<serve::JobStatus> statuses;
  std::vector<char> accepted;     // char, not bool: threads write it
  std::string stats_json;          // daemon stats after the loop
  std::string error;               // transport failure, if any
};
ServeSession run_serve_session(const Workload& w, std::uint64_t seed,
                               const std::string& work_dir, int clients,
                               int jobs_per_client);

// The trainer's own spans as shares of its iteration wall time: the
// lock-step batched decode on the training thread, and per rollout (worker
// thread or forked child, averaged over `workers`) its whole body and its
// reward flow. `iteration_path` locates the "iteration" span in `snap`.
void emit_trainer_split(const TelemetrySnapshot& snap,
                        const std::string& iteration_path, int workers);

// Emits the serve.* per-layer metrics of a finished session.
void emit_serve_layers(const ServeSession& session);

// Entry points; both return the process exit code.
int run_repeat(const ChildOptions& options);
int run_probes(const ChildOptions& options);

// Writes this process's Chrome trace: the library's TraceRecorder events
// plus the bench spans.
void write_trace(const std::string& path);

}  // namespace rlccd::bench
