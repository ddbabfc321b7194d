// Wire-codec tests for the serve protocol: every message round-trips
// byte-exactly, truncated or padded payloads surface as diagnosable corrupt
// Statuses, and out-of-range enum values are rejected rather than smuggled
// through.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>

namespace rlccd {
namespace serve {
namespace {

TEST(ServeProtocol, JobSpecRoundTrips) {
  JobSpec spec;
  spec.session = "chip-a.v2";
  spec.kind = JobKind::kNoop;
  spec.block = "block7";
  spec.scale = 0.25;
  spec.iters = 17;
  spec.rollout_workers = 4;
  spec.seed = 0xDEADBEEFull;
  spec.priority = -3;
  spec.deadline_sec = 42.5;
  spec.noop_sec = 0.125;

  std::string bytes;
  encode(bytes, spec);
  JobSpec out;
  ASSERT_TRUE(parse(bytes, out).ok());
  std::string again;
  encode(again, out);
  EXPECT_EQ(again, bytes);
  EXPECT_EQ(out.session, spec.session);
  EXPECT_EQ(out.kind, spec.kind);
  EXPECT_EQ(out.block, spec.block);
  EXPECT_EQ(out.scale, spec.scale);
  EXPECT_EQ(out.iters, spec.iters);
  EXPECT_EQ(out.rollout_workers, spec.rollout_workers);
  EXPECT_EQ(out.seed, spec.seed);
  EXPECT_EQ(out.priority, spec.priority);
  EXPECT_EQ(out.deadline_sec, spec.deadline_sec);
  EXPECT_EQ(out.noop_sec, spec.noop_sec);
}

TEST(ServeProtocol, TruncatedSpecIsCorruptNotCrash) {
  JobSpec spec;
  std::string bytes;
  encode(bytes, spec);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    JobSpec out;
    Status s = parse(std::string_view(bytes).substr(0, cut), out);
    EXPECT_FALSE(s.ok()) << "cut at byte " << cut;
  }
}

// A message fills its payload exactly: one byte more is corrupt.
template <class Msg>
void expect_trailing_byte_corrupt(const Msg& msg, const char* name) {
  std::string bytes;
  encode(bytes, msg);
  Msg out;
  ASSERT_TRUE(parse(bytes, out).ok()) << name;
  bytes.push_back('\0');
  EXPECT_EQ(parse(bytes, out).code(), StatusCode::kCorrupt) << name;
}

TEST(ServeProtocol, TrailingByteIsCorrupt) {
  JobProgress progress;
  progress.metrics = {{"tns", -3.5}};
  expect_trailing_byte_corrupt(JobSpec{}, "JobSpec");
  expect_trailing_byte_corrupt(JobStatus{}, "JobStatus");
  expect_trailing_byte_corrupt(Hello{}, "Hello");
  expect_trailing_byte_corrupt(HelloReply{}, "HelloReply");
  expect_trailing_byte_corrupt(SubmitReply{}, "SubmitReply");
  expect_trailing_byte_corrupt(JobRef{}, "JobRef");
  expect_trailing_byte_corrupt(progress, "JobProgress");
  expect_trailing_byte_corrupt(JobAudit{7, "{}"}, "JobAudit");
  expect_trailing_byte_corrupt(JobResult{}, "JobResult");
}

TEST(ServeProtocol, UnknownJobKindRejected) {
  JobSpec spec;
  std::string bytes;
  encode(bytes, spec);
  // The kind byte follows the session string ([u32 len][bytes]).
  const std::size_t kind_at = sizeof(std::uint32_t) + spec.session.size();
  bytes[kind_at] = static_cast<char>(0x7F);
  JobSpec out;
  Status s = parse(bytes, out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
}

TEST(ServeProtocol, JobStatusRoundTripsEveryState) {
  for (int raw = 0; raw <= 7; ++raw) {
    JobStatus st;
    st.job_id = 99;
    st.state = static_cast<JobState>(raw);
    st.session = "s";
    st.kind = JobKind::kTrain;
    st.attempts = 3;
    st.iterations = 12;
    st.best_tns = -1.25;
    st.default_tns = -2.5;
    st.selection_size = 7;
    st.result_digest = 0xCAFEF00Du;
    st.detail = "retrying after signal (exit=-1 signal=9)";
    st.postmortem = "/ws/7/postmortem-7-1.json";
    st.trace = "/ws/7/trace-7.json";

    std::string bytes;
    encode(bytes, st);
    JobStatus out;
    ASSERT_TRUE(parse(bytes, out).ok()) << raw;
    EXPECT_EQ(out.state, st.state);
    EXPECT_EQ(out.job_id, st.job_id);
    EXPECT_EQ(out.result_digest, st.result_digest);
    EXPECT_EQ(out.detail, st.detail);
    EXPECT_EQ(out.postmortem, st.postmortem);
    EXPECT_EQ(out.trace, st.trace);
  }
}

TEST(ServeProtocol, TerminalStateClassification) {
  EXPECT_FALSE(job_state_terminal(JobState::kQueued));
  EXPECT_FALSE(job_state_terminal(JobState::kRunning));
  EXPECT_FALSE(job_state_terminal(JobState::kRetryWait));
  EXPECT_TRUE(job_state_terminal(JobState::kDone));
  EXPECT_TRUE(job_state_terminal(JobState::kFailed));
  EXPECT_TRUE(job_state_terminal(JobState::kShed));
  EXPECT_TRUE(job_state_terminal(JobState::kCancelled));
  EXPECT_TRUE(job_state_terminal(JobState::kDrained));
}

TEST(ServeProtocol, HelloAndSubmitReplyRoundTrip) {
  Hello hello;
  hello.version = 7;
  std::string bytes;
  encode(bytes, hello);
  Hello h2;
  ASSERT_TRUE(parse(bytes, h2).ok());
  EXPECT_EQ(h2.version, 7u);

  HelloReply hr;
  hr.version = 1;
  hr.daemon_pid = 4242;
  bytes.clear();
  encode(bytes, hr);
  HelloReply hr2;
  ASSERT_TRUE(parse(bytes, hr2).ok());
  EXPECT_EQ(hr2.daemon_pid, 4242u);

  SubmitReply rej;
  rej.accepted = false;
  rej.reason = "queue full (64/64 jobs)";
  bytes.clear();
  encode(bytes, rej);
  SubmitReply rej2;
  ASSERT_TRUE(parse(bytes, rej2).ok());
  EXPECT_FALSE(rej2.accepted);
  EXPECT_EQ(rej2.reason, rej.reason);
}

TEST(ServeProtocol, JobProgressRoundTripsMetrics) {
  JobProgress p;
  p.job_id = 5;
  p.phase = "train";
  p.step = "iteration";
  p.index = 3;
  p.seconds = 1.5;
  p.metrics = {{"best_tns", -3.25}, {"mean_steps", 11.0}};

  std::string bytes;
  encode(bytes, p);
  JobProgress out;
  ASSERT_TRUE(parse(bytes, out).ok());
  EXPECT_EQ(out.job_id, 5u);
  EXPECT_EQ(out.phase, "train");
  ASSERT_EQ(out.metrics.size(), 2u);
  EXPECT_EQ(out.metrics[1].first, "mean_steps");
  EXPECT_EQ(out.metrics[1].second, 11.0);
}

TEST(ServeProtocol, ProgressMetricCountIsCapped) {
  JobProgress p;
  p.metrics.assign(1024, {"m", 1.0});
  std::string bytes;
  encode(bytes, p);
  JobProgress out;
  ASSERT_TRUE(parse(bytes, out).ok());
  EXPECT_EQ(out.metrics.size(), 1024u);

  p.metrics.emplace_back("m", 1.0);
  bytes.clear();
  encode(bytes, p);
  Status s = parse(bytes, out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
}

TEST(ServeProtocol, JobResultRoundTrips) {
  JobResult r;
  r.drained = true;
  r.iterations = 9;
  r.best_tns = -0.5;
  r.default_tns = -1.0;
  r.selection_size = 13;
  r.digest = 0xABCD1234u;
  r.detail = "drained at 9/12 iters";

  std::string bytes;
  encode(bytes, r);
  JobResult out;
  ASSERT_TRUE(parse(bytes, out).ok());
  EXPECT_TRUE(out.drained);
  EXPECT_EQ(out.iterations, 9);
  EXPECT_EQ(out.digest, r.digest);
  EXPECT_EQ(out.detail, r.detail);
}

TEST(ServeProtocol, NamesAreStable) {
  EXPECT_STREQ(msg_type_name(MsgType::kSubmit), "submit");
  EXPECT_STREQ(msg_type_name(MsgType::kStatsReply), "stats_reply");
  EXPECT_STREQ(msg_type_name(MsgType::kStatsWatch), "stats_watch");
  EXPECT_STREQ(msg_type_name(MsgType::kMetrics), "metrics");
  EXPECT_STREQ(msg_type_name(MsgType::kMetricsReply), "metrics_reply");
  EXPECT_STREQ(job_kind_name(JobKind::kNoop), "noop");
  EXPECT_STREQ(job_state_name(JobState::kRetryWait), "retry_wait");
  EXPECT_STREQ(job_state_name(JobState::kDrained), "drained");
}

}  // namespace
}  // namespace serve
}  // namespace rlccd
