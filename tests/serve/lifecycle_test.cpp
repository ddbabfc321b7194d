// Session-lifecycle regression (the PR's core recovery claim): a training
// job whose worker is crashed mid-run by the fault injector is retried
// automatically, resumes from its newest checkpoint, and produces a result
// bit-identical to an uncrashed run of the same spec.
#include "serve/daemon.h"

#ifndef _WIN32

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>

#include "common/fault.h"
#include "helpers/temp_path.h"
#include "serve/client.h"

namespace rlccd {
namespace serve {
namespace {

JobSpec train_spec(const std::string& session) {
  JobSpec spec;
  spec.session = session;
  spec.kind = JobKind::kTrain;
  spec.block = "block11";
  // scale 0.004 degenerates to an all-zero-TNS design whose digest cannot
  // distinguish a broken resume from a correct one; 0.01 gives real slack
  // values while keeping the run a few seconds.
  spec.scale = 0.01;
  spec.iters = 2;
  spec.rollout_workers = 2;
  spec.seed = 7;
  return spec;
}

TEST(ServeLifecycle, CrashedJobResumesFromCheckpointBitIdentical) {
  FaultInjector::global().reset();
  const std::string base = ::testing::TempDir() + "rlccd_lifecycle_" +
                           std::to_string(::getpid());
  ServeConfig cfg;
  cfg.socket_path = base + ".sock";
  cfg.root_dir = base;
  cfg.workers = 1;  // serialize the two jobs: deterministic fault hits
  cfg.retry_backoff_base_sec = 0.01;
  ServeDaemon daemon(cfg);
  ASSERT_TRUE(daemon.init().ok());
  int exit_code = -1;
  std::thread loop([&] { exit_code = daemon.run(); });

  ServeClient client;
  ASSERT_TRUE(client.connect(cfg.socket_path).ok());

  // Baseline: the same spec, no faults, one attempt.
  SubmitReply clean;
  ASSERT_TRUE(client.submit(train_spec("clean"), clean).ok());
  ASSERT_TRUE(clean.accepted) << clean.reason;
  JobStatus clean_status;
  ASSERT_TRUE(client.wait(clean.job_id, clean_status, 180.0).ok());
  ASSERT_EQ(clean_status.state, JobState::kDone);
  EXPECT_EQ(clean_status.attempts, 1);
  ASSERT_NE(clean_status.result_digest, 0u);

  // Crash run: the worker _exit(3)s right after writing its first
  // checkpoint (param = 1), so the retry genuinely resumes mid-run — it
  // must replay iteration 2 from the iteration-1 checkpoint, not restart.
  FaultInjector::global().arm(
      {"serve_worker_crash", /*hit=*/1, /*count=*/1, /*param=*/1.0});
  SubmitReply crashed;
  ASSERT_TRUE(client.submit(train_spec("crashed"), crashed).ok());
  ASSERT_TRUE(crashed.accepted) << crashed.reason;

  int progress_events = 0;
  JobStatus crashed_status;
  ASSERT_TRUE(client
                  .wait(crashed.job_id, crashed_status, 180.0,
                        [&](const JobProgress&) { ++progress_events; }, {})
                  .ok());
  FaultInjector::global().reset();

  ASSERT_EQ(crashed_status.state, JobState::kDone)
      << crashed_status.detail;
  EXPECT_EQ(crashed_status.attempts, 2)
      << "the crashed attempt plus the resuming retry";
  EXPECT_GT(progress_events, 0) << "watchers stream live progress";

  // The recovery contract: crash + resume is invisible in the result.
  EXPECT_EQ(crashed_status.result_digest, clean_status.result_digest);
  EXPECT_EQ(crashed_status.iterations, clean_status.iterations);
  EXPECT_EQ(crashed_status.best_tns, clean_status.best_tns);
  EXPECT_EQ(crashed_status.default_tns, clean_status.default_tns);
  EXPECT_EQ(crashed_status.selection_size, clean_status.selection_size);

  ASSERT_TRUE(client.shutdown().ok());
  loop.join();
  EXPECT_EQ(exit_code, 0);
  testing::remove_tree(base);
}

}  // namespace
}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32
