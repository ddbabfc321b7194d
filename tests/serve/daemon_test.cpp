// End-to-end daemon tests: an in-process ServeDaemon event loop on its own
// thread, driven through ServeClient over the real Unix socket. Covers the
// submit/wait happy path, injected worker crashes with automatic retry,
// admission rejection and priority shedding under overload, cancel of both
// queued and running jobs, the injected accept/disconnect fault points, and
// the SIGTERM-equivalent graceful drain.
#include "serve/daemon.h"

#ifndef _WIN32

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/fault.h"
#include "helpers/temp_path.h"
#include "serve/client.h"

namespace rlccd {
namespace serve {
namespace {

// Pulls the integer after `"key":` out of the stats JSON; -1 when absent.
// (Telemetry counters are process-global, so tests assert deltas or >=.)
long long json_int(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + needle.size());
}

JobSpec noop_spec(const std::string& session, double noop_sec = 0.05,
                  int priority = 0) {
  JobSpec spec;
  spec.session = session;
  spec.kind = JobKind::kNoop;
  spec.noop_sec = noop_sec;
  spec.priority = priority;
  return spec;
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }

  void TearDown() override {
    if (daemon_ != nullptr) stop_daemon();
    FaultInjector::global().reset();
    if (!root_dir_.empty()) testing::remove_tree(root_dir_);
  }

  void start_daemon(ServeConfig cfg) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string base = ::testing::TempDir() + "rlccd_serve_" +
                             info->name() + "_" +
                             std::to_string(::getpid());
    cfg.socket_path = base + ".sock";
    cfg.root_dir = base;
    socket_path_ = cfg.socket_path;
    root_dir_ = base;
    daemon_ = std::make_unique<ServeDaemon>(cfg);
    Status s = daemon_->init();
    ASSERT_TRUE(s.ok()) << s.to_string();
    thread_ = std::thread([this] { exit_code_ = daemon_->run(); });
  }

  int stop_daemon() {
    daemon_->request_shutdown();
    if (thread_.joinable()) thread_.join();
    daemon_.reset();
    return exit_code_;
  }

  std::string socket_path_;
  std::string root_dir_;
  std::unique_ptr<ServeDaemon> daemon_;
  std::thread thread_;
  int exit_code_ = -1;
};

TEST_F(DaemonTest, NoopJobRunsToDoneWithStableDigest) {
  start_daemon(ServeConfig{});
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  SubmitReply reply;
  ASSERT_TRUE(client.submit(noop_spec("alpha"), reply).ok());
  ASSERT_TRUE(reply.accepted) << reply.reason;

  JobStatus status;
  ASSERT_TRUE(client.wait(reply.job_id, status, /*timeout_sec=*/20.0).ok());
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.attempts, 1);
  EXPECT_NE(status.result_digest, 0u);

  // Same spec, same digest: the result identity clients diff against.
  SubmitReply reply2;
  ASSERT_TRUE(client.submit(noop_spec("alpha"), reply2).ok());
  JobStatus status2;
  ASSERT_TRUE(client.wait(reply2.job_id, status2, 20.0).ok());
  EXPECT_EQ(status2.state, JobState::kDone);
  EXPECT_EQ(status2.result_digest, status.result_digest);

  std::string stats;
  ASSERT_TRUE(client.stats_json(stats).ok());
  EXPECT_EQ(json_int(stats, "depth"), 0);
  EXPECT_EQ(json_int(stats, "running"), 0);
  EXPECT_NE(stats.find("\"name\":\"alpha\""), std::string::npos) << stats;

  ASSERT_TRUE(client.shutdown().ok());
  if (thread_.joinable()) thread_.join();
  EXPECT_EQ(exit_code_, 0);
  daemon_.reset();
}

TEST_F(DaemonTest, InvalidSubmitsAreRejectedWithReason) {
  start_daemon(ServeConfig{});
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  JobSpec bad_session = noop_spec("no/slashes");
  SubmitReply reply;
  ASSERT_TRUE(client.submit(bad_session, reply).ok());
  EXPECT_FALSE(reply.accepted);
  EXPECT_FALSE(reply.reason.empty());

  JobSpec bad_block = noop_spec("ok");
  bad_block.kind = JobKind::kTrain;
  bad_block.block = "no_such_block";
  ASSERT_TRUE(client.submit(bad_block, reply).ok());
  EXPECT_FALSE(reply.accepted);
  EXPECT_NE(reply.reason.find("block"), std::string::npos) << reply.reason;

  JobSpec bad_scale = noop_spec("ok");
  bad_scale.kind = JobKind::kTrain;
  bad_scale.scale = 0.0;
  ASSERT_TRUE(client.submit(bad_scale, reply).ok());
  EXPECT_FALSE(reply.accepted);
}

TEST_F(DaemonTest, InjectedWorkerCrashRetriesToCompletion) {
  ServeConfig cfg;
  cfg.retry_backoff_base_sec = 0.01;  // keep the test fast
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  std::string before;
  ASSERT_TRUE(client.stats_json(before).ok());
  const long long retried_before = json_int(before, "serve.jobs_retried");

  // First spawn dies with _exit(3) before doing any work; the daemon must
  // classify the crash, back off, and rerun to an identical result.
  FaultInjector::global().arm({"serve_worker_crash", /*hit=*/1, /*count=*/1});
  SubmitReply reply;
  ASSERT_TRUE(client.submit(noop_spec("crashy"), reply).ok());
  ASSERT_TRUE(reply.accepted) << reply.reason;

  JobStatus status;
  ASSERT_TRUE(client.wait(reply.job_id, status, 20.0).ok());
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.attempts, 2) << "one crashed attempt plus the retry";

  std::string after;
  ASSERT_TRUE(client.stats_json(after).ok());
  EXPECT_GE(json_int(after, "serve.jobs_retried"), retried_before + 1);
}

TEST_F(DaemonTest, RetriesExhaustedEndsFailedNotSilent) {
  ServeConfig cfg;
  cfg.job_retries = 1;
  cfg.retry_backoff_base_sec = 0.01;
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  // Both the first attempt and its one retry crash.
  FaultInjector::global().arm({"serve_worker_crash", /*hit=*/1, /*count=*/2});
  SubmitReply reply;
  ASSERT_TRUE(client.submit(noop_spec("doomed"), reply).ok());
  ASSERT_TRUE(reply.accepted);

  JobStatus status;
  ASSERT_TRUE(client.wait(reply.job_id, status, 20.0).ok());
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.attempts, 2);
  EXPECT_FALSE(status.detail.empty()) << "failure must carry a reason";
}

TEST_F(DaemonTest, DeadlineKillsEachAttemptOnceThenFails) {
  ServeConfig cfg;
  cfg.job_retries = 1;
  cfg.retry_backoff_base_sec = 0.01;
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  std::string before;
  ASSERT_TRUE(client.stats_json(before).ok());
  const long long kills_before = json_int(before, "serve.jobs_killed");

  // The job would sleep 30 s while heartbeating; only the per-job hard
  // deadline ends each attempt, and it must kill each attempt exactly once.
  JobSpec spec = noop_spec("late", /*noop_sec=*/30.0);
  spec.deadline_sec = 0.2;
  SubmitReply reply;
  ASSERT_TRUE(client.submit(spec, reply).ok());
  ASSERT_TRUE(reply.accepted) << reply.reason;

  JobStatus status;
  ASSERT_TRUE(client.wait(reply.job_id, status, 20.0).ok());
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.attempts, 2);
  EXPECT_NE(status.detail.find("timeout: deadline exceeded"),
            std::string::npos)
      << status.detail;

  std::string after;
  ASSERT_TRUE(client.stats_json(after).ok());
  EXPECT_EQ(json_int(after, "serve.jobs_killed"), kills_before + 2);
}

TEST_F(DaemonTest, HeartbeatSilenceKillsTheAttempt) {
  // The child beats once at start and then not for 5 s; 0.2 s of silence
  // is a wedge.
  ServeConfig cfg;
  cfg.heartbeat_interval_sec = 5.0;
  cfg.heartbeat_timeout_sec = 0.2;
  cfg.job_retries = 0;
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  std::string before;
  ASSERT_TRUE(client.stats_json(before).ok());
  const long long kills_before = json_int(before, "serve.jobs_killed");

  SubmitReply reply;
  ASSERT_TRUE(client.submit(noop_spec("quiet", /*noop_sec=*/30.0), reply).ok());
  ASSERT_TRUE(reply.accepted) << reply.reason;

  JobStatus status;
  ASSERT_TRUE(client.wait(reply.job_id, status, 20.0).ok());
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.attempts, 1);
  EXPECT_NE(status.detail.find("timeout: heartbeat"), std::string::npos)
      << status.detail;

  std::string after;
  ASSERT_TRUE(client.stats_json(after).ok());
  EXPECT_EQ(json_int(after, "serve.jobs_killed"), kills_before + 1);
}

TEST_F(DaemonTest, OverloadRejectsEqualAndShedsLowerPriority) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue.max_queue_depth = 1;
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  // Occupy the single worker with a long job, then fill the queue.
  SubmitReply running;
  ASSERT_TRUE(client.submit(noop_spec("s", /*noop_sec=*/10.0), running).ok());
  ASSERT_TRUE(running.accepted);
  // Give the loop a beat to dispatch it out of the queue.
  for (int i = 0; i < 100; ++i) {
    std::string stats;
    ASSERT_TRUE(client.stats_json(stats).ok());
    if (json_int(stats, "running") == 1 && json_int(stats, "depth") == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  SubmitReply queued;
  ASSERT_TRUE(client.submit(noop_spec("s", 0.05, /*priority=*/0), queued).ok());
  ASSERT_TRUE(queued.accepted);

  // Queue full + equal priority: rejected with a concrete reason.
  SubmitReply rejected;
  ASSERT_TRUE(client.submit(noop_spec("s", 0.05, 0), rejected).ok());
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.reason.find("queue full"), std::string::npos)
      << rejected.reason;

  // Queue full + strictly higher priority: admitted, lower-priority queued
  // job shed.
  SubmitReply high;
  ASSERT_TRUE(client.submit(noop_spec("s", 0.05, /*priority=*/5), high).ok());
  ASSERT_TRUE(high.accepted) << high.reason;
  JobStatus shed_status;
  ASSERT_TRUE(client.poll_job(queued.job_id, shed_status).ok());
  EXPECT_EQ(shed_status.state, JobState::kShed);
  EXPECT_NE(shed_status.detail.find("shed"), std::string::npos);

  // Cancel the long runner; the high-priority job then completes.
  JobStatus cancel_status;
  ASSERT_TRUE(client.cancel(running.job_id, cancel_status).ok());
  JobStatus final_running;
  ASSERT_TRUE(client.wait(running.job_id, final_running, 20.0).ok());
  EXPECT_EQ(final_running.state, JobState::kCancelled);

  JobStatus final_high;
  ASSERT_TRUE(client.wait(high.job_id, final_high, 20.0).ok());
  EXPECT_EQ(final_high.state, JobState::kDone);
}

TEST_F(DaemonTest, CancelQueuedJobIsTerminalImmediately) {
  ServeConfig cfg;
  cfg.workers = 1;
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  SubmitReply running;
  ASSERT_TRUE(client.submit(noop_spec("s", 10.0), running).ok());
  SubmitReply queued;
  ASSERT_TRUE(client.submit(noop_spec("s"), queued).ok());
  ASSERT_TRUE(queued.accepted);

  JobStatus status;
  ASSERT_TRUE(client.cancel(queued.job_id, status).ok());
  EXPECT_EQ(status.state, JobState::kCancelled);

  ASSERT_TRUE(client.cancel(running.job_id, status).ok());
  JobStatus final_status;
  ASSERT_TRUE(client.wait(running.job_id, final_status, 20.0).ok());
  EXPECT_EQ(final_status.state, JobState::kCancelled);
}

TEST_F(DaemonTest, AcceptFailAndClientDisconnectFaultsAreSurvivable) {
  start_daemon(ServeConfig{});

  // serve_accept_fail: the first accepted connection is dropped on the
  // floor; the client's connect-retry loop lands the second one.
  FaultInjector::global().arm({"serve_accept_fail", /*hit=*/1, /*count=*/1});
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_, /*timeout_sec=*/10.0).ok());

  std::string stats;
  ASSERT_TRUE(client.stats_json(stats).ok());
  EXPECT_GE(json_int(stats, "serve.accept_failures"), 1);

  // serve_client_disconnect: the daemon force-closes the connection after
  // handling one request; the next request transparently reconnects.
  FaultInjector::global().arm(
      {"serve_client_disconnect", /*hit=*/1, /*count=*/1});
  ASSERT_TRUE(client.stats_json(stats).ok());  // handled, then disconnected
  ASSERT_TRUE(client.stats_json(stats).ok()) << "reconnect must be transparent";

  // The daemon itself never went down: jobs still run end to end.
  SubmitReply reply;
  ASSERT_TRUE(client.submit(noop_spec("survivor"), reply).ok());
  ASSERT_TRUE(reply.accepted);
  JobStatus status;
  ASSERT_TRUE(client.wait(reply.job_id, status, 20.0).ok());
  EXPECT_EQ(status.state, JobState::kDone);
}

TEST_F(DaemonTest, GracefulDrainShedsQueuedStopsRunningExitsZero) {
  ServeConfig cfg;
  cfg.workers = 1;
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  SubmitReply running;
  ASSERT_TRUE(client.submit(noop_spec("s", 10.0), running).ok());
  SubmitReply queued;
  ASSERT_TRUE(client.submit(noop_spec("s"), queued).ok());
  ASSERT_TRUE(running.accepted && queued.accepted);

  // shutdown == SIGTERM: running children stop at a safe point, queued work
  // is shed (reported, never silent), exit code 0 for a clean drain. The
  // final queue invariant (assert_no_silent_jobs) runs inside the daemon.
  ASSERT_TRUE(client.shutdown().ok());
  if (thread_.joinable()) thread_.join();
  EXPECT_EQ(exit_code_, 0);
  daemon_.reset();
}

}  // namespace
}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32
