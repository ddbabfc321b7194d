// End-to-end observability plane: a job child SIGKILLed mid-work is
// retried to a bit-identical result, the crashed attempt leaves a
// postmortem JSON with the trace events the child shipped before dying, the
// stitched per-job Chrome trace shows both attempts on distinct pid rows,
// kStatsWatch streams live snapshots with gauge transitions, the kMetrics
// Prometheus exposition parses and every family traces back to the metric
// manifest, and daemon reject reasons reach the client verbatim.
#include "serve/daemon.h"

#ifndef _WIN32

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "common/metric_names.h"
#include "helpers/temp_path.h"
#include "serve/client.h"

namespace rlccd {
namespace serve {
namespace {

JobSpec noop_spec(const std::string& session, double noop_sec) {
  JobSpec spec;
  spec.session = session;
  spec.kind = JobKind::kNoop;
  spec.noop_sec = noop_sec;
  return spec;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void start_daemon(ServeConfig cfg) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string base = ::testing::TempDir() + "rlccd_obs_" +
                             info->name() + "_" + std::to_string(::getpid());
    cfg.socket_path = base + ".sock";
    cfg.root_dir = base;
    socket_path_ = cfg.socket_path;
    root_dir_ = base;
    daemon_ = std::make_unique<ServeDaemon>(cfg);
    Status s = daemon_->init();
    ASSERT_TRUE(s.ok()) << s.to_string();
    thread_ = std::thread([this] { exit_code_ = daemon_->run(); });
  }

  void TearDown() override {
    if (daemon_ != nullptr) {
      daemon_->request_shutdown();
      if (thread_.joinable()) thread_.join();
      daemon_.reset();
    }
    if (!root_dir_.empty()) testing::remove_tree(root_dir_);
  }

  // Polls the stats JSON until `job_id` is running on a worker slot;
  // returns the child's pid (0 on timeout).
  int busy_worker_pid(ServeClient& client, std::uint64_t job_id,
                      double timeout_sec) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_sec);
    while (std::chrono::steady_clock::now() < deadline) {
      std::string stats;
      if (client.stats_json(stats).ok()) {
        JsonValue doc;
        if (JsonValue::parse(stats, doc).ok()) {
          const JsonValue* workers = doc.find("workers");
          if (workers != nullptr && workers->is_array()) {
            for (const JsonValue& w : workers->array_items()) {
              if (w.bool_or("busy", false) &&
                  static_cast<std::uint64_t>(w.number_or("job", 0.0)) ==
                      job_id) {
                return static_cast<int>(w.number_or("pid", 0.0));
              }
            }
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return 0;
  }

  std::string socket_path_;
  std::string root_dir_;
  std::unique_ptr<ServeDaemon> daemon_;
  std::thread thread_;
  int exit_code_ = -1;
};

TEST_F(ObservabilityTest, SigkilledAttemptLeavesPostmortemAndStitchedTrace) {
  ServeConfig cfg;
  cfg.retry_backoff_base_sec = 0.01;
  cfg.heartbeat_interval_sec = 0.05;  // ship obs deltas quickly
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  // Reference run: the digest the killed-and-retried job must reproduce.
  SubmitReply clean;
  ASSERT_TRUE(client.submit(noop_spec("obs", 0.05), clean).ok());
  ASSERT_TRUE(clean.accepted) << clean.reason;
  JobStatus clean_status;
  ASSERT_TRUE(client.wait(clean.job_id, clean_status, 20.0).ok());
  ASSERT_EQ(clean_status.state, JobState::kDone);

  // The victim: long enough that we can find its pid and that several
  // heartbeats ship the trace tail before the SIGKILL lands.
  SubmitReply reply;
  ASSERT_TRUE(client.submit(noop_spec("obs", 3.0), reply).ok());
  ASSERT_TRUE(reply.accepted) << reply.reason;
  const int pid = busy_worker_pid(client, reply.job_id, 10.0);
  ASSERT_GT(pid, 0) << "job never reached a worker slot";
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  JobStatus status;
  ASSERT_TRUE(client.wait(reply.job_id, status, 30.0).ok());
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.attempts, 2) << "one SIGKILLed attempt plus the retry";
  EXPECT_EQ(status.result_digest, clean_status.result_digest)
      << "retry must complete bit-identically";

  // Postmortem: written for the killed attempt, referenced in the status,
  // classified as a signal death, holding the child's shipped trace events.
  ASSERT_FALSE(status.postmortem.empty());
  std::string pm_text;
  ASSERT_TRUE(read_file(status.postmortem, pm_text).ok())
      << status.postmortem;
  JsonValue pm;
  ASSERT_TRUE(JsonValue::parse(pm_text, pm).ok()) << pm_text;
  EXPECT_EQ(pm.string_or("job", ""), std::to_string(reply.job_id));
  EXPECT_EQ(pm.number_or("attempt", 0.0), 1.0);
  EXPECT_EQ(pm.number_or("pid", 0.0), static_cast<double>(pid));
  EXPECT_EQ(pm.string_or("classification", ""), "signal");
  EXPECT_EQ(pm.number_or("term_signal", 0.0), static_cast<double>(SIGKILL));
  const JsonValue* events = pm.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array_items().empty())
      << "the heartbeat must have shipped trace events before the kill";
  bool saw_attempt_start = false;
  for (const JsonValue& ev : events->array_items()) {
    if (ev.string_or("name", "") == "attempt start" &&
        ev.number_or("dur_sec", 0.0) < 0.0) {
      saw_attempt_start = true;
    }
  }
  EXPECT_TRUE(saw_attempt_start) << pm_text;

  // Stitched trace: a daemon row with the job span plus one pid row per
  // attempt — the SIGKILLed attempt and the successful retry side by side.
  ASSERT_FALSE(status.trace.empty());
  std::string trace_text;
  ASSERT_TRUE(read_file(status.trace, trace_text).ok()) << status.trace;
  JsonValue trace;
  ASSERT_TRUE(JsonValue::parse(trace_text, trace).ok()) << trace_text;
  const JsonValue* trace_events = trace.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  std::set<int> attempt_pids;
  bool saw_job_span = false;
  bool saw_noop_span = false;
  for (const JsonValue& ev : trace_events->array_items()) {
    const std::string name = ev.string_or("name", "");
    if (name == "process_name") {
      const JsonValue* args = ev.find("args");
      if (args != nullptr &&
          args->string_or("name", "").rfind("attempt ", 0) == 0) {
        attempt_pids.insert(static_cast<int>(ev.number_or("pid", 0.0)));
      }
    }
    if (name == "job " + std::to_string(reply.job_id)) saw_job_span = true;
    if (name == "noop") saw_noop_span = true;
  }
  EXPECT_EQ(attempt_pids.size(), 2u)
      << "both attempts must land on distinct pid rows: " << trace_text;
  EXPECT_TRUE(attempt_pids.count(pid) == 1) << "killed attempt's pid row";
  EXPECT_TRUE(saw_job_span) << trace_text;
  EXPECT_TRUE(saw_noop_span)
      << "the retry's child-recorded span must be stitched in";

  // The merge and postmortem counters moved.
  std::string stats;
  ASSERT_TRUE(client.stats_json(stats).ok());
  JsonValue sdoc;
  ASSERT_TRUE(JsonValue::parse(stats, sdoc).ok());
  const JsonValue* counters = sdoc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->number_or("serve.postmortems_written", 0.0), 1.0);
  EXPECT_GE(counters->number_or("serve.traces_written", 0.0), 1.0);
  EXPECT_GE(counters->number_or("serve.obs_deltas_merged", 0.0), 1.0);
  EXPECT_EQ(counters->number_or("serve.obs_delta_errors", -1.0), 0.0)
      << "a torn final frame must be dropped silently, and none were torn";
}

TEST_F(ObservabilityTest, WatchStreamsSnapshotsWithGaugeTransitions) {
  ServeConfig cfg;
  cfg.stats_push_interval_sec = 0.05;
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  SubmitReply reply;
  ASSERT_TRUE(client.submit(noop_spec("watch", 0.8), reply).ok());
  ASSERT_TRUE(reply.accepted) << reply.reason;

  // Stream until we have seen the jobs_running gauge both high and back at
  // zero — a live transition, not two identical frames.
  int snapshots = 0;
  bool saw_running = false;
  bool saw_idle_after_running = false;
  Status ws = client.watch_stats(
      [&](const std::string& json) {
        ++snapshots;
        JsonValue doc;
        if (JsonValue::parse(json, doc).ok()) {
          const JsonValue* gauges = doc.find("gauges");
          if (gauges != nullptr) {
            const double running =
                gauges->number_or("serve.jobs_running", 0.0);
            if (running >= 1.0) saw_running = true;
            if (saw_running && running == 0.0) {
              saw_idle_after_running = true;
              return false;  // seen the full transition; stop watching
            }
          }
        }
        return true;
      },
      /*count=*/0, /*timeout_sec=*/15.0);
  ASSERT_TRUE(ws.ok()) << ws.to_string();
  EXPECT_GE(snapshots, 2);
  EXPECT_TRUE(saw_running) << "never saw the job running";
  EXPECT_TRUE(saw_idle_after_running);

  // The watcher gauge tracks subscriptions; after the watch the same
  // connection still serves plain requests (stray pushes are skipped).
  std::string stats;
  ASSERT_TRUE(client.stats_json(stats).ok());
  JsonValue doc;
  ASSERT_TRUE(JsonValue::parse(stats, doc).ok());
  const JsonValue* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_GE(gauges->number_or("serve.stats_watchers", -1.0), 1.0);

  JobStatus final_status;
  ASSERT_TRUE(client.wait(reply.job_id, final_status, 20.0).ok());
  EXPECT_EQ(final_status.state, JobState::kDone);
}

// Family names a scraper would index must all trace back to the manifest:
// sanitized manifest names (counters get _total, histograms add _sum and
// _count), the span families, or a sanctioned dynamic prefix.
TEST_F(ObservabilityTest, MetricsExpositionParsesAndMatchesManifest) {
  ServeConfig cfg;
  start_daemon(cfg);
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  // One finished job so serve.* families have data.
  SubmitReply reply;
  ASSERT_TRUE(client.submit(noop_spec("prom", 0.05), reply).ok());
  ASSERT_TRUE(reply.accepted);
  JobStatus status;
  ASSERT_TRUE(client.wait(reply.job_id, status, 20.0).ok());

  std::string text;
  ASSERT_TRUE(client.metrics_text(text).ok());
  ASSERT_FALSE(text.empty());

  auto sanitize = [](std::string_view name) {
    std::string out;
    for (char c : name) {
      out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
    }
    return out;
  };
  std::set<std::string> sanctioned = {"rlccd_span_seconds_total",
                                      "rlccd_span_count_total"};
  for (std::string_view n : kCounterNames) {
    sanctioned.insert("rlccd_" + sanitize(n) + "_total");
  }
  for (std::string_view n : kGaugeNames) {
    sanctioned.insert("rlccd_" + sanitize(n));
  }
  for (std::string_view n : kHistogramNames) {
    const std::string base = "rlccd_" + sanitize(n);
    sanctioned.insert(base);
    sanctioned.insert(base + "_sum");
    sanctioned.insert(base + "_count");
  }

  int metric_lines = 0;
  bool saw_jobs_done = false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++metric_lines;
    std::size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
            line[i] == '_')) {
      ++i;
    }
    const std::string family = line.substr(0, i);
    ASSERT_LT(i, line.size()) << line;
    EXPECT_TRUE(line[i] == '{' || line[i] == ' ') << line;
    const bool dynamic = family.rfind("rlccd_fault_", 0) == 0 ||
                         family.rfind("rlccd_test_", 0) == 0;
    EXPECT_TRUE(dynamic || sanctioned.count(family) == 1)
        << "unsanctioned exposition family: " << family;
    if (family == "rlccd_serve_jobs_done_total") saw_jobs_done = true;
  }
  EXPECT_GT(metric_lines, 0);
  EXPECT_TRUE(saw_jobs_done) << text;
}

TEST_F(ObservabilityTest, DaemonRejectReasonsReachTheClientVerbatim) {
  start_daemon(ServeConfig{});
  ServeClient client;
  ASSERT_TRUE(client.connect(socket_path_).ok());

  // kError replies: the daemon's exact words, no client-side prefix.
  JobStatus status;
  Status s = client.poll_job(987654, status);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "unknown job 987654")
      << "reject reason must travel verbatim";

  // Admission rejections: the reason string the daemon produced, verbatim
  // in the SubmitReply.
  JobSpec bad = noop_spec("bad/session", 0.01);
  SubmitReply reply;
  ASSERT_TRUE(client.submit(bad, reply).ok());
  EXPECT_FALSE(reply.accepted);
  EXPECT_FALSE(reply.reason.empty());

  // The status round-trip carries the new observability fields; for a
  // clean one-attempt job the postmortem stays empty and the trace points
  // at a real file.
  SubmitReply ok_reply;
  ASSERT_TRUE(client.submit(noop_spec("ok", 0.02), ok_reply).ok());
  ASSERT_TRUE(ok_reply.accepted);
  JobStatus done;
  ASSERT_TRUE(client.wait(ok_reply.job_id, done, 20.0).ok());
  ASSERT_EQ(done.state, JobState::kDone);
  EXPECT_TRUE(done.postmortem.empty()) << done.postmortem;
  ASSERT_FALSE(done.trace.empty());
  std::string trace_text;
  EXPECT_TRUE(read_file(done.trace, trace_text).ok()) << done.trace;
}

}  // namespace
}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32
