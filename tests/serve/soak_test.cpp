// Soak: 4 concurrent clients push 60 jobs through a small daemon while the
// fault injector crashes workers, drops accepted connections, force-closes
// clients mid-conversation, and forces queue-full rejections. The daemon
// must survive it all with every admitted job reaching a terminal state
// (zero silent jobs — also asserted inside the daemon at drain) and every
// rejection carrying a reason.
#include "serve/daemon.h"

#ifndef _WIN32

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "helpers/temp_path.h"
#include "serve/client.h"

namespace rlccd {
namespace serve {
namespace {

constexpr int kClients = 4;
constexpr int kJobsPerClient = 15;

TEST(ServeSoak, ConcurrentClientsUnderInjectedFaults) {
  FaultInjector::global().reset();
  // Crash three worker spawns (one window crashes the retry too — still
  // inside the retry budget), drop one accepted connection, force-close
  // three in-flight client connections, and force three submits down the
  // queue-full path.
  FaultInjector::global().arm({"serve_worker_crash", /*hit=*/3, /*count=*/1});
  FaultInjector::global().arm({"serve_worker_crash", /*hit=*/11, /*count=*/2});
  FaultInjector::global().arm({"serve_accept_fail", /*hit=*/2, /*count=*/1});
  FaultInjector::global().arm(
      {"serve_client_disconnect", /*hit=*/7, /*count=*/3});
  FaultInjector::global().arm({"serve_queue_full", /*hit=*/20, /*count=*/3});

  const std::string base =
      ::testing::TempDir() + "rlccd_soak_" + std::to_string(::getpid());
  ServeConfig cfg;
  cfg.socket_path = base + ".sock";
  cfg.root_dir = base;
  cfg.workers = 3;
  cfg.queue.max_queue_depth = 12;  // small: real overload rejections too
  cfg.retry_backoff_base_sec = 0.01;
  ServeDaemon daemon(cfg);
  ASSERT_TRUE(daemon.init().ok());
  int exit_code = -1;
  std::thread loop([&] { exit_code = daemon.run(); });

  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> terminal{0};
  std::atomic<int> done_or_cancelled{0};
  std::mutex log_mutex;
  std::vector<std::string> problems;

  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(log_mutex);
    problems.push_back(what);
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client;
      Status s = client.connect(cfg.socket_path, /*timeout_sec=*/10.0);
      if (!s.ok()) {
        fail("client " + std::to_string(c) + " connect: " + s.to_string());
        return;
      }
      std::vector<std::uint64_t> my_jobs;
      for (int j = 0; j < kJobsPerClient; ++j) {
        JobSpec spec;
        spec.session = "soak-" + std::to_string(c);
        spec.kind = JobKind::kNoop;
        spec.noop_sec = 0.01 + 0.01 * (j % 5);
        spec.seed = static_cast<std::uint64_t>(c * 100 + j);
        spec.priority = j % 3;
        SubmitReply reply;
        s = client.submit(spec, reply);
        if (!s.ok()) {
          // Transport failure (e.g. both the connection and its one retry
          // hit the disconnect fault); the job was never admitted.
          transport_errors.fetch_add(1);
          continue;
        }
        if (!reply.accepted) {
          rejected.fetch_add(1);
          if (reply.reason.empty()) {
            fail("rejection without a reason");
          }
          continue;
        }
        accepted.fetch_add(1);
        my_jobs.push_back(reply.job_id);
      }
      // One mid-flight cancel per client: cancels must still end terminal.
      if (my_jobs.size() > 2) {
        JobStatus st;
        s = client.cancel(my_jobs[my_jobs.size() / 2], st);
        if (!s.ok()) fail("cancel: " + s.to_string());
      }
      for (std::uint64_t id : my_jobs) {
        JobStatus st;
        s = client.wait(id, st, /*timeout_sec=*/60.0);
        if (!s.ok()) {
          fail("wait(" + std::to_string(id) + "): " + s.to_string());
          continue;
        }
        if (!job_state_terminal(st.state)) {
          fail("job " + std::to_string(id) + " non-terminal: " +
               job_state_name(st.state));
          continue;
        }
        terminal.fetch_add(1);
        if (st.state == JobState::kDone || st.state == JobState::kCancelled ||
            st.state == JobState::kShed) {
          done_or_cancelled.fetch_add(1);
        } else {
          fail("job " + std::to_string(id) + " ended " +
               job_state_name(st.state) + ": " + st.detail);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  FaultInjector::global().reset();

  for (const auto& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(accepted.load() + rejected.load() + transport_errors.load(),
            kClients * kJobsPerClient);
  EXPECT_EQ(terminal.load(), accepted.load())
      << "every admitted job must reach a terminal state";
  EXPECT_GE(rejected.load(), 3)
      << "the forced queue-full windows alone guarantee three rejections";
  // Submits race far ahead of the 3 workers, so most of the flood is
  // legitimately rejected; the floor only guards against total collapse.
  EXPECT_GE(accepted.load(), kClients * kJobsPerClient / 3)
      << "overload must degrade, not collapse";

  // The daemon survived: it still serves a fresh client end to end.
  ServeClient after;
  ASSERT_TRUE(after.connect(cfg.socket_path, 10.0).ok());
  SubmitReply reply;
  JobSpec spec;
  spec.session = "post-soak";
  spec.kind = JobKind::kNoop;
  ASSERT_TRUE(after.submit(spec, reply).ok());
  ASSERT_TRUE(reply.accepted) << reply.reason;
  JobStatus st;
  ASSERT_TRUE(after.wait(reply.job_id, st, 30.0).ok());
  EXPECT_EQ(st.state, JobState::kDone);

  // Clean drain; the daemon's own assert_no_silent_jobs() runs on exit.
  ASSERT_TRUE(after.shutdown().ok());
  loop.join();
  EXPECT_EQ(exit_code, 0);
  testing::remove_tree(base);
}

}  // namespace
}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32
