#include "serve/protocol.h"

#include <concepts>
#include <type_traits>

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

// -- field lists --------------------------------------------------------------

namespace {

// S is `const Msg` under a ByteWriter and `Msg` under a ByteReader; one
// field list per message, overloaded on the message type.
template <class S, class Msg>
concept Walked = std::same_as<std::remove_const_t<S>, Msg>;

// A progress event carries a handful of metrics; more is a corrupt frame.
constexpr std::size_t kMaxProgressMetrics = 1024;

template <class W, Walked<JobSpec> S>
Status fields(W& w, S& spec) {
  RLCCD_TRY(w.string(spec.session, "spec.session"));
  RLCCD_TRY(w.enum8(spec.kind, JobKind::kNoop, "job kind"));
  RLCCD_TRY(w.string(spec.block, "spec.block"));
  RLCCD_TRY(w.pod(spec.scale, "spec.scale"));
  RLCCD_TRY(w.pod(spec.iters, "spec.iters"));
  RLCCD_TRY(w.pod(spec.rollout_workers, "spec.rollout_workers"));
  RLCCD_TRY(w.pod(spec.seed, "spec.seed"));
  RLCCD_TRY(w.pod(spec.priority, "spec.priority"));
  RLCCD_TRY(w.pod(spec.deadline_sec, "spec.deadline_sec"));
  return w.pod(spec.noop_sec, "spec.noop_sec");
}

template <class W, Walked<JobStatus> S>
Status fields(W& w, S& status) {
  RLCCD_TRY(w.pod(status.job_id, "status.job_id"));
  RLCCD_TRY(w.enum8(status.state, JobState::kDrained, "job state"));
  RLCCD_TRY(w.string(status.session, "status.session"));
  RLCCD_TRY(w.enum8(status.kind, JobKind::kNoop, "job kind"));
  RLCCD_TRY(w.pod(status.attempts, "status.attempts"));
  RLCCD_TRY(w.pod(status.iterations, "status.iterations"));
  RLCCD_TRY(w.pod(status.best_tns, "status.best_tns"));
  RLCCD_TRY(w.pod(status.default_tns, "status.default_tns"));
  RLCCD_TRY(w.pod(status.selection_size, "status.selection_size"));
  RLCCD_TRY(w.pod(status.result_digest, "status.result_digest"));
  RLCCD_TRY(w.string(status.detail, "status.detail"));
  RLCCD_TRY(w.string(status.postmortem, "status.postmortem"));
  return w.string(status.trace, "status.trace");
}

template <class W, Walked<Hello> S>
Status fields(W& w, S& hello) {
  return w.pod(hello.version, "hello.version");
}

template <class W, Walked<HelloReply> S>
Status fields(W& w, S& reply) {
  RLCCD_TRY(w.pod(reply.version, "hello.version"));
  return w.pod(reply.daemon_pid, "hello.pid");
}

template <class W, Walked<SubmitReply> S>
Status fields(W& w, S& reply) {
  RLCCD_TRY(w.as(kU8, reply.accepted, "submit.accepted"));
  RLCCD_TRY(w.pod(reply.job_id, "submit.job_id"));
  return w.string(reply.reason, "submit.reason");
}

template <class W, Walked<JobRef> S>
Status fields(W& w, S& ref) {
  return w.pod(ref.job_id, "job_ref.job_id");
}

template <class W, Walked<JobProgress> S>
Status fields(W& w, S& progress) {
  RLCCD_TRY(w.pod(progress.job_id, "progress.job_id"));
  RLCCD_TRY(w.string(progress.phase, "progress.phase"));
  RLCCD_TRY(w.string(progress.step, "progress.step"));
  RLCCD_TRY(w.pod(progress.index, "progress.index"));
  RLCCD_TRY(w.pod(progress.seconds, "progress.seconds"));
  // A name length and a double value each.
  return w.list(
      kU32, progress.metrics, 12, "progress.metric_count",
      [&](auto& metric) {
        RLCCD_TRY(w.string(metric.first, "progress.metric_name"));
        return w.pod(metric.second, "progress.metric_value");
      },
      kMaxProgressMetrics);
}

template <class W, Walked<JobAudit> S>
Status fields(W& w, S& audit) {
  RLCCD_TRY(w.pod(audit.job_id, "audit job id"));
  return w.string(audit.line, "audit line");
}

template <class W, Walked<JobResult> S>
Status fields(W& w, S& result) {
  RLCCD_TRY(w.as(kU8, result.drained, "result.drained"));
  RLCCD_TRY(w.pod(result.iterations, "result.iterations"));
  RLCCD_TRY(w.pod(result.best_tns, "result.best_tns"));
  RLCCD_TRY(w.pod(result.default_tns, "result.default_tns"));
  RLCCD_TRY(w.pod(result.selection_size, "result.selection_size"));
  RLCCD_TRY(w.pod(result.digest, "result.digest"));
  return w.string(result.detail, "result.detail");
}

}  // namespace

template <class Msg>
void encode(std::string& out, const Msg& msg) {
  ByteWriter w(out);
  (void)fields(w, msg);
}

template <class Msg>
Status parse(std::string_view bytes, Msg& msg) {
  ByteReader r(bytes);
  RLCCD_TRY(fields(r, msg));
  return r.finish();
}

template void encode(std::string&, const JobSpec&);
template void encode(std::string&, const JobStatus&);
template void encode(std::string&, const Hello&);
template void encode(std::string&, const HelloReply&);
template void encode(std::string&, const SubmitReply&);
template void encode(std::string&, const JobRef&);
template void encode(std::string&, const JobProgress&);
template void encode(std::string&, const JobAudit&);
template void encode(std::string&, const JobResult&);
template Status parse(std::string_view, JobSpec&);
template Status parse(std::string_view, JobStatus&);
template Status parse(std::string_view, Hello&);
template Status parse(std::string_view, HelloReply&);
template Status parse(std::string_view, SubmitReply&);
template Status parse(std::string_view, JobRef&);
template Status parse(std::string_view, JobProgress&);
template Status parse(std::string_view, JobAudit&);
template Status parse(std::string_view, JobResult&);

}  // namespace serve
}  // namespace rlccd
