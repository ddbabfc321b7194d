#include "serve/protocol.h"

namespace rlccd {
namespace serve {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kChildProgress: return "child_progress";
    case MsgType::kChildAudit: return "child_audit";
    case MsgType::kHello: return "hello";
    case MsgType::kHelloReply: return "hello_reply";
    case MsgType::kSubmit: return "submit";
    case MsgType::kSubmitReply: return "submit_reply";
    case MsgType::kPoll: return "poll";
    case MsgType::kJobStatus: return "job_status";
    case MsgType::kCancel: return "cancel";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats_reply";
    case MsgType::kWatch: return "watch";
    case MsgType::kProgress: return "progress";
    case MsgType::kAudit: return "audit";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kShutdownReply: return "shutdown_reply";
    case MsgType::kError: return "error";
    case MsgType::kStatsWatch: return "stats_watch";
    case MsgType::kMetrics: return "metrics";
    case MsgType::kMetricsReply: return "metrics_reply";
  }
  return "?";
}

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kTrain: return "train";
    case JobKind::kNoop: return "noop";
  }
  return "?";
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kRetryWait: return "retry_wait";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kShed: return "shed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDrained: return "drained";
  }
  return "?";
}

bool job_state_terminal(JobState state) {
  switch (state) {
    case JobState::kQueued:
    case JobState::kRunning:
    case JobState::kRetryWait:
      return false;
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kShed:
    case JobState::kCancelled:
    case JobState::kDrained:
      return true;
  }
  return true;
}

// -- JobSpec ------------------------------------------------------------------

void encode_job_spec(std::string& out, const JobSpec& spec) {
  ipc_append_string(out, spec.session);
  ipc_append_pod(out, static_cast<std::uint8_t>(spec.kind));
  ipc_append_string(out, spec.block);
  ipc_append_pod(out, spec.scale);
  ipc_append_pod(out, spec.iters);
  ipc_append_pod(out, spec.rollout_workers);
  ipc_append_pod(out, spec.seed);
  ipc_append_pod(out, spec.priority);
  ipc_append_pod(out, spec.deadline_sec);
  ipc_append_pod(out, spec.noop_sec);
}

Status parse_job_spec(std::string_view bytes, std::size_t& offset,
                      JobSpec& spec) {
  RLCCD_TRY(ipc_parse_string(bytes, offset, spec.session, "spec.session"));
  std::uint8_t kind = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, kind, "spec.kind"));
  if (kind > static_cast<std::uint8_t>(JobKind::kNoop)) {
    return Status::corrupt("unknown job kind %u", kind);
  }
  spec.kind = static_cast<JobKind>(kind);
  RLCCD_TRY(ipc_parse_string(bytes, offset, spec.block, "spec.block"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, spec.scale, "spec.scale"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, spec.iters, "spec.iters"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, spec.rollout_workers,
                          "spec.rollout_workers"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, spec.seed, "spec.seed"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, spec.priority, "spec.priority"));
  RLCCD_TRY(
      ipc_parse_pod(bytes, offset, spec.deadline_sec, "spec.deadline_sec"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, spec.noop_sec, "spec.noop_sec"));
  return Status();
}

// -- JobStatus ----------------------------------------------------------------

void encode_job_status(std::string& out, const JobStatus& status) {
  ipc_append_pod(out, status.job_id);
  ipc_append_pod(out, static_cast<std::uint8_t>(status.state));
  ipc_append_string(out, status.session);
  ipc_append_pod(out, static_cast<std::uint8_t>(status.kind));
  ipc_append_pod(out, status.attempts);
  ipc_append_pod(out, status.iterations);
  ipc_append_pod(out, status.best_tns);
  ipc_append_pod(out, status.default_tns);
  ipc_append_pod(out, status.selection_size);
  ipc_append_pod(out, status.result_digest);
  ipc_append_string(out, status.detail);
  ipc_append_string(out, status.postmortem);
  ipc_append_string(out, status.trace);
}

Status parse_job_status(std::string_view bytes, std::size_t& offset,
                        JobStatus& status) {
  RLCCD_TRY(ipc_parse_pod(bytes, offset, status.job_id, "status.job_id"));
  std::uint8_t state = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, state, "status.state"));
  if (state > static_cast<std::uint8_t>(JobState::kDrained)) {
    return Status::corrupt("unknown job state %u", state);
  }
  status.state = static_cast<JobState>(state);
  RLCCD_TRY(ipc_parse_string(bytes, offset, status.session, "status.session"));
  std::uint8_t kind = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, kind, "status.kind"));
  if (kind > static_cast<std::uint8_t>(JobKind::kNoop)) {
    return Status::corrupt("unknown job kind %u", kind);
  }
  status.kind = static_cast<JobKind>(kind);
  RLCCD_TRY(ipc_parse_pod(bytes, offset, status.attempts, "status.attempts"));
  RLCCD_TRY(
      ipc_parse_pod(bytes, offset, status.iterations, "status.iterations"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, status.best_tns, "status.best_tns"));
  RLCCD_TRY(
      ipc_parse_pod(bytes, offset, status.default_tns, "status.default_tns"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, status.selection_size,
                          "status.selection_size"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, status.result_digest,
                          "status.result_digest"));
  RLCCD_TRY(ipc_parse_string(bytes, offset, status.detail, "status.detail"));
  RLCCD_TRY(
      ipc_parse_string(bytes, offset, status.postmortem, "status.postmortem"));
  RLCCD_TRY(ipc_parse_string(bytes, offset, status.trace, "status.trace"));
  return Status();
}

// -- small payloads -----------------------------------------------------------

void encode_hello(std::string& out, const Hello& hello) {
  ipc_append_pod(out, hello.version);
}

Status parse_hello(std::string_view bytes, std::size_t& offset, Hello& hello) {
  return ipc_parse_pod(bytes, offset, hello.version, "hello.version");
}

void encode_hello_reply(std::string& out, const HelloReply& reply) {
  ipc_append_pod(out, reply.version);
  ipc_append_pod(out, reply.daemon_pid);
}

Status parse_hello_reply(std::string_view bytes, std::size_t& offset,
                         HelloReply& reply) {
  RLCCD_TRY(ipc_parse_pod(bytes, offset, reply.version, "hello.version"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, reply.daemon_pid, "hello.pid"));
  return Status();
}

void encode_submit_reply(std::string& out, const SubmitReply& reply) {
  ipc_append_pod(out, static_cast<std::uint8_t>(reply.accepted ? 1 : 0));
  ipc_append_pod(out, reply.job_id);
  ipc_append_string(out, reply.reason);
}

Status parse_submit_reply(std::string_view bytes, std::size_t& offset,
                          SubmitReply& reply) {
  std::uint8_t accepted = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, accepted, "submit.accepted"));
  reply.accepted = accepted != 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, reply.job_id, "submit.job_id"));
  RLCCD_TRY(ipc_parse_string(bytes, offset, reply.reason, "submit.reason"));
  return Status();
}

void encode_job_ref(std::string& out, const JobRef& ref) {
  ipc_append_pod(out, ref.job_id);
}

Status parse_job_ref(std::string_view bytes, std::size_t& offset,
                     JobRef& ref) {
  return ipc_parse_pod(bytes, offset, ref.job_id, "job_ref.job_id");
}

// -- JobProgress --------------------------------------------------------------

void encode_job_progress(std::string& out, const JobProgress& progress) {
  ipc_append_pod(out, progress.job_id);
  ipc_append_string(out, progress.phase);
  ipc_append_string(out, progress.step);
  ipc_append_pod(out, progress.index);
  ipc_append_pod(out, progress.seconds);
  ipc_append_pod(out, static_cast<std::uint32_t>(progress.metrics.size()));
  for (const auto& [name, value] : progress.metrics) {
    ipc_append_string(out, name);
    ipc_append_pod(out, value);
  }
}

Status parse_job_progress(std::string_view bytes, std::size_t& offset,
                          JobProgress& progress) {
  RLCCD_TRY(ipc_parse_pod(bytes, offset, progress.job_id, "progress.job_id"));
  RLCCD_TRY(ipc_parse_string(bytes, offset, progress.phase, "progress.phase"));
  RLCCD_TRY(ipc_parse_string(bytes, offset, progress.step, "progress.step"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, progress.index, "progress.index"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, progress.seconds,
                          "progress.seconds"));
  std::uint32_t n = 0;  // name length + double value each
  RLCCD_TRY(ipc_parse_count(bytes, offset, n, 12, "progress.metric_count"));
  if (n > 1024) return Status::corrupt("absurd metric count %u", n);
  progress.metrics.clear();
  progress.metrics.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    double value = 0.0;
    RLCCD_TRY(ipc_parse_string(bytes, offset, name, "progress.metric_name"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, value, "progress.metric_value"));
    progress.metrics.emplace_back(std::move(name), value);
  }
  return Status();
}

// -- JobResult ----------------------------------------------------------------

void encode_job_result(std::string& out, const JobResult& result) {
  ipc_append_pod(out, static_cast<std::uint8_t>(result.drained ? 1 : 0));
  ipc_append_pod(out, result.iterations);
  ipc_append_pod(out, result.best_tns);
  ipc_append_pod(out, result.default_tns);
  ipc_append_pod(out, result.selection_size);
  ipc_append_pod(out, result.digest);
  ipc_append_string(out, result.detail);
}

Status parse_job_result(std::string_view bytes, std::size_t& offset,
                        JobResult& result) {
  std::uint8_t drained = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, drained, "result.drained"));
  result.drained = drained != 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, result.iterations,
                          "result.iterations"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, result.best_tns, "result.best_tns"));
  RLCCD_TRY(
      ipc_parse_pod(bytes, offset, result.default_tns, "result.default_tns"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, result.selection_size,
                          "result.selection_size"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, result.digest, "result.digest"));
  RLCCD_TRY(ipc_parse_string(bytes, offset, result.detail, "result.detail"));
  return Status();
}

}  // namespace serve
}  // namespace rlccd
