// Golden bytes for every binary format: one fixed, fully populated value per
// format is encoded and the CRC-32 of its bytes compared with a recorded
// constant. A round trip or a fixed point cannot see a layout change, since
// the encoder and the decoder change together; a recorded CRC can. Each test
// also decodes its bytes and re-encodes the result, so the decoder accepts
// exactly the recorded layout. A failing CRC means the bytes on the wire or
// on disk moved: bump that format's version, then record the new constant.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/telemetry_wire.h"
#include "helpers/temp_path.h"
#include "nn/serialize.h"
#include "rl/checkpoint.h"
#include "rl/isolation/wire.h"
#include "serve/protocol.h"

namespace rlccd {
namespace {

using testing::temp_path;

// The serve codec under test, one message type at a time.
template <class Msg>
std::string serve_bytes(const Msg& msg) {
  std::string out;
  serve::encode(out, msg);
  return out;
}

template <class Msg>
Status serve_parse(std::string_view bytes, Msg& msg) {
  return serve::parse(bytes, msg);
}

std::string file_bytes(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(read_file(path, bytes).ok()) << path;
  return bytes;
}

TelemetrySnapshot rich_snapshot() {
  TelemetrySnapshot snap;
  snap.counters = {{"sta.full_runs", 4}, {"flow.passes", 31}};
  snap.gauges = {{"test.depth", -3}};
  MetricsHistogram::Snapshot h;
  h.merge_value(0.25, -2);
  h.merge_value(1.5, 1);
  h.merge_value(3.0, 2);
  snap.histograms = {{"flow.seconds", h}};
  SpanNode& rollout = snap.spans.child("rollout");
  rollout.count = 2;
  rollout.total_sec = 0.75;
  SpanNode& flow = rollout.child("flow");
  flow.count = 2;
  flow.total_sec = 0.5;
  flow.child("sta").count = 9;
  return snap;
}

TEST(GoldenBytes, RolloutWire) {
  RolloutWire wire;
  wire.outcome.summary = {-1.5, -12.5, 9, 120, -0.0625};
  wire.outcome.reward = 0.625;
  wire.outcome.flow_ran = true;
  wire.outcome.cancelled = true;
  wire.outcome.state_hash = Hash128{0x0123456789abcdefull, 0xfedcba98ull};
  wire.outcome.cache_hit = true;
  wire.steps = 3;
  wire.poisoned = true;
  wire.selection = {PinId(7), PinId(4095), PinId(12)};
  wire.grads = {{1.0f, -2.5f}, {}, {0.0f, 3.25f, -0.125f}};
  AuditStep step;
  step.chosen = 11;
  step.slack = -0.375;
  step.log_prob = -1.25;
  step.entropy = 0.5;
  step.top_probs = {{11, 0.75}, {2, 0.125}};
  step.masked = {{9, 0.8125}, {4, 0.5}};
  wire.audit.steps = {step, AuditStep{}};
  wire.audit.poisoned = true;
  wire.telemetry = rich_snapshot();

  std::string bytes;
  encode_rollout_wire(wire, bytes);
  EXPECT_EQ(bytes.size(), 536u);
  EXPECT_EQ(crc32(bytes), 0x8f394995u);

  RolloutWire back;
  ASSERT_TRUE(decode_rollout_wire(bytes, back).ok());
  std::string again;
  encode_rollout_wire(back, again);
  EXPECT_EQ(again, bytes);
}

TEST(GoldenBytes, ObsDelta) {
  ObsDelta delta;
  delta.seq = 42;
  delta.source_pid = 1234;
  delta.telemetry = rich_snapshot();
  delta.trace_events = {{"rollout", 1.0, 0.5, 3},
                        {"mark", 2.0, -1.0, 0},
                        {"train/iteration", 2.5, 0.25, -1}};

  const std::string bytes = delta.encode();
  EXPECT_EQ(bytes.size(), 395u);
  EXPECT_EQ(crc32(bytes), 0x334443bau);

  ObsDelta back;
  ASSERT_TRUE(back.decode(bytes).ok());
  EXPECT_EQ(back.encode(), bytes);
}

// Encodes `msg`, checks its size and CRC, and that the bytes parse back to a
// message that encodes to the same bytes.
template <class Msg>
void expect_serve_golden(const Msg& msg, std::size_t size,
                         std::uint32_t crc) {
  const std::string bytes = serve_bytes(msg);
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(crc32(bytes), crc);
  Msg back;
  ASSERT_TRUE(serve_parse(bytes, back).ok());
  EXPECT_EQ(serve_bytes(back), bytes);
}

TEST(GoldenBytes, ServeMessages) {
  using namespace serve;
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
  expect_serve_golden(spec, 68, 0x47046854u);

  JobStatus status;
  status.job_id = 77;
  status.state = JobState::kDrained;
  status.session = "s";
  status.kind = JobKind::kNoop;
  status.attempts = 2;
  status.iterations = 12;
  status.best_tns = -4.5;
  status.default_tns = -9.25;
  status.selection_size = 7;
  status.result_digest = 0xCAFEF00Du;
  status.detail = "resumed from ckpt-000002";
  status.postmortem = "/w/pm.json";
  status.trace = "/w/trace.json";
  expect_serve_golden(status, 110, 0x619f444au);

  Hello hello;
  hello.version = 7;
  expect_serve_golden(hello, 4, 0xbc93e7a5u);

  HelloReply hello_reply;
  hello_reply.version = 2;
  hello_reply.daemon_pid = 4242;
  expect_serve_golden(hello_reply, 12, 0x9d9577b2u);

  SubmitReply submit_reply;
  submit_reply.accepted = true;
  submit_reply.job_id = 9;
  submit_reply.reason = "queue full";
  expect_serve_golden(submit_reply, 23, 0x48a8d5f5u);

  JobRef ref;
  ref.job_id = 0x0102030405060708ull;
  expect_serve_golden(ref, 8, 0xa5cced25u);

  JobProgress progress;
  progress.job_id = 5;
  progress.phase = "train";
  progress.step = "iteration";
  progress.index = 3;
  progress.seconds = 1.25;
  progress.metrics = {{"tns", -3.5}, {"reward", 0.25}};
  expect_serve_golden(progress, 79, 0x57af4744u);

  // The relayed audit line's layout predates its message struct: the job
  // id as u64, then the line as a u32-length string.
  JobAudit audit;
  audit.job_id = 12;
  audit.line = R"({"kind":"rollout","iteration":3})";
  expect_serve_golden(audit, 44, 0x6fb24a99u);

  JobResult result;
  result.drained = true;
  result.iterations = 4;
  result.best_tns = -2.0;
  result.default_tns = -3.0;
  result.selection_size = 6;
  result.digest = 0x1234u;
  result.detail = "done";
  expect_serve_golden(result, 41, 0x626c3a16u);
}

TEST(GoldenBytes, CheckpointFile) {
  TrainCheckpoint ckpt;
  ckpt.seed = 17;
  ckpt.workers = 4;
  ckpt.next_iter = 5;
  ckpt.baseline = -0.375;
  ckpt.baseline_init = true;
  ckpt.stall = 2;
  ckpt.rng_state = 0xDEADBEEFCAFEull;
  ckpt.params = {{1.0f, 2.0f, 3.0f, 4.0f}, {0.5f}};
  ckpt.param_shapes = {{2, 2}, {1, 1}};
  ckpt.adam.t = 9;
  ckpt.adam.m = {{0.1f, 0.2f, 0.3f, 0.4f}, {0.9f}};
  ckpt.adam.v = {{0.01f, 0.02f, 0.03f, 0.04f}, {0.81f}};
  ckpt.stats.begin_tns = -123.5;
  ckpt.stats.default_tns = -80.25;
  ckpt.stats.default_nve = 33;
  ckpt.stats.best_tns = -58.0;
  ckpt.stats.best_selection = {PinId(3), PinId(11)};
  ckpt.stats.history = {{-0.5, -60.0, -59.0, -58.0, 6.0, 1.5, 0.25, -0.5},
                        {0.25, -59.5, -58.5, -58.0, 5.0, 1.25, 0.5, -0.25}};
  ckpt.stats.iterations = 2;
  ckpt.stats.flow_runs = 16;
  ckpt.stats.train_seconds = 3.5;

  const std::string path = temp_path("golden_ckpt.rlccd");
  ASSERT_TRUE(save_checkpoint(ckpt, path).ok());
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(bytes.size(), 427u);
  EXPECT_EQ(crc32(bytes), 0x4b2a518du);

  TrainCheckpoint back;
  ASSERT_TRUE(load_checkpoint(back, path).ok());
  ASSERT_TRUE(save_checkpoint(back, path).ok());
  EXPECT_EQ(file_bytes(path), bytes);
  std::remove(path.c_str());
}

TEST(GoldenBytes, ParameterFile) {
  std::vector<Tensor> params = {
      Tensor::from_data({1.0f, 2.0f, -3.0f, 4.5f, 0.0f, 1e-3f}, 2, 3),
      Tensor::from_data({-1.0f, 7.25f}, 2, 1),
      Tensor::from_data({0.5f}, 1, 1)};

  const std::string path = temp_path("golden_params.bin");
  ASSERT_TRUE(save_parameters(params, path).ok());
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(bytes.size(), 100u);
  EXPECT_EQ(crc32(bytes), 0x5c430901u);

  std::vector<Tensor> back = {Tensor::from_data(std::vector<float>(6), 2, 3),
                              Tensor::from_data(std::vector<float>(2), 2, 1),
                              Tensor::from_data(std::vector<float>(1), 1, 1)};
  ASSERT_TRUE(load_parameters(back, path).ok());
  ASSERT_TRUE(save_parameters(back, path).ok());
  EXPECT_EQ(file_bytes(path), bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlccd
