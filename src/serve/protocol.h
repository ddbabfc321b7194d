// Wire protocol of the rlccd_serve daemon.
//
// Clients talk to the daemon over a Unix-domain stream socket carrying the
// same length-prefixed frames as the rollout-isolation pipes (common/ipc.h):
// [type u8][len u32 LE][payload]. This header owns the frame-type namespace
// above the supervisor's 1..3 range, the plain-data message structs, and
// one encode and one parse for all of them. Each message's layout is one
// field list in protocol.cpp, walked by common/ipc.h's ByteWriter and
// ByteReader, so a truncated or corrupt payload surfaces as a diagnosable
// Status instead of garbage.
//
// Conversation shape:
//   client                          daemon
//   ------                          ------
//   kHello {version}          ->
//                             <-    kHelloReply {version, pid}
//   kSubmit {JobSpec}         ->
//                             <-    kSubmitReply {accepted|reason, job_id}
//   kWatch {job_id}           ->
//                             <-    kJobStatus (current state, immediately)
//                             <-    kProgress ... (streamed while running)
//                             <-    kAudit ...    (JSONL decision records)
//                             <-    kJobStatus (terminal state)
//   kPoll / kCancel / kStats / kShutdown are single request/reply pairs.
//
// The daemon<->job-worker pipe reuses FrameType::kHeartbeat/kResult/kError
// plus kChildProgress/kChildAudit below; a job result travels as a
// JobResultWire payload inside the kResult frame.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ipc.h"
#include "common/status.h"

namespace rlccd {
namespace serve {

// v2: JobStatus gained the postmortem/trace artifact paths; kStatsWatch
// subscribes to a streamed stats feed; kMetrics fetches the Prometheus
// exposition of the daemon's metrics registry.
inline constexpr std::uint32_t kProtocolVersion = 2;

// Frame types. 1..3 belong to common/ipc FrameType (heartbeat / result /
// error, reused verbatim on the job-worker pipes); 10..15 are
// daemon-internal child frames; 16+ are client-facing messages.
enum class MsgType : std::uint8_t {
  kChildProgress = 10,  // JobProgress from a job worker to the daemon
  kChildAudit = 11,     // one audit JSONL line from a job worker

  kHello = 16,
  kHelloReply = 17,
  kSubmit = 18,
  kSubmitReply = 19,
  kPoll = 20,
  kJobStatus = 21,
  kCancel = 22,
  kStats = 23,
  kStatsReply = 24,  // payload: one JSON document (health + telemetry)
  kWatch = 25,
  kProgress = 26,  // JobProgress relayed to a watching client
  kAudit = 27,     // audit JSONL line relayed to a watching client
  kShutdown = 28,
  kShutdownReply = 29,
  kError = 30,  // payload: human-readable message
  // Streaming stats subscription: one kStatsWatch subscribes this client to
  // periodic kStatsReply pushes (same JSON document as kStats) until it
  // disconnects.
  kStatsWatch = 31,
  kMetrics = 32,       // request the Prometheus exposition
  kMetricsReply = 33,  // payload: exposition text (UTF-8)
};

const char* msg_type_name(MsgType type);

// -- job specification --------------------------------------------------------

enum class JobKind : std::uint8_t {
  kTrain = 0,  // full REINFORCE training run on a generated block design
  kNoop = 1,   // sleeps noop_sec, heartbeating; scheduling/soak ballast
};

const char* job_kind_name(JobKind kind);

struct JobSpec {
  std::string session;  // registry key; [A-Za-z0-9._-]+
  JobKind kind = JobKind::kTrain;
  std::string block = "block11";  // designgen block name (kTrain)
  double scale = 0.004;           // block scale in (0, 1]
  std::int32_t iters = 2;         // training iterations (patience = iters)
  std::int32_t rollout_workers = 2;
  std::uint64_t seed = 1;
  std::int32_t priority = 0;  // higher survives overload longer
  // Per-attempt hard wall-clock deadline enforced by the daemon with
  // SIGKILL; <= 0 uses the daemon's default.
  double deadline_sec = 0.0;
  double noop_sec = 0.05;  // kNoop: simulated work duration
};

// -- job lifecycle ------------------------------------------------------------

// Every admitted job ends in exactly one of the terminal states (kDone,
// kFailed, kShed, kCancelled, kDrained) — never silently. Rejected submits
// never become jobs at all (the rejection travels in the kSubmitReply).
enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kRetryWait = 2,  // crashed attempt waiting out its restart backoff
  kDone = 3,
  kFailed = 4,     // retries exhausted (or crashed during drain)
  kShed = 5,       // dropped by overload shedding or daemon shutdown
  kCancelled = 6,  // client-requested cancel
  kDrained = 7,    // stopped at a checkpoint by SIGTERM drain; resumable
};

const char* job_state_name(JobState state);
[[nodiscard]] bool job_state_terminal(JobState state);

struct JobStatus {
  std::uint64_t job_id = 0;
  JobState state = JobState::kQueued;
  std::string session;
  JobKind kind = JobKind::kTrain;
  std::int32_t attempts = 0;    // worker processes forked so far
  std::int32_t iterations = 0;  // completed training iterations (result)
  double best_tns = 0.0;        // result payload (kDone / kDrained)
  double default_tns = 0.0;
  std::uint64_t selection_size = 0;
  // CRC-32 over the job's deterministic result bytes; two runs of the same
  // spec must agree bit-for-bit, crashed-and-resumed or not.
  std::uint32_t result_digest = 0;
  std::string detail;  // human-readable: last progress / failure reason
  // Observability artifacts, when the daemon wrote them: the newest crash
  // postmortem JSON for this job and the stitched per-job Chrome trace.
  // Paths under the job workspace; empty when not (yet) written.
  std::string postmortem;
  std::string trace;
};

// -- small request/reply payloads ---------------------------------------------

struct Hello {
  std::uint32_t version = kProtocolVersion;
};
struct HelloReply {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t daemon_pid = 0;
};

struct SubmitReply {
  bool accepted = false;
  std::uint64_t job_id = 0;  // valid when accepted
  std::string reason;        // why not, when rejected
};

struct JobRef {  // kPoll / kWatch / kCancel
  std::uint64_t job_id = 0;
};

// -- streamed progress --------------------------------------------------------

// A ProgressEvent flattened for the wire: the job worker serializes its
// trainer observer events, the daemon stamps the job id and relays them to
// watching clients.
struct JobProgress {
  std::uint64_t job_id = 0;  // 0 on the child pipe; stamped by the daemon
  std::string phase;
  std::string step;
  std::int32_t index = -1;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
};

// An audit JSONL line relayed to a watching client (kAudit); the job worker
// sends the bare line (kChildAudit) and the daemon stamps the job id.
struct JobAudit {
  std::uint64_t job_id = 0;
  std::string line;
};

// -- job worker result --------------------------------------------------------

// Payload of the kResult frame a job worker sends the daemon.
struct JobResult {
  bool drained = false;  // stopped at a checkpoint by the drain SIGTERM
  std::int32_t iterations = 0;
  double best_tns = 0.0;
  double default_tns = 0.0;
  std::uint64_t selection_size = 0;
  std::uint32_t digest = 0;  // CRC-32 over the deterministic result bytes
  std::string detail;
};

// -- codec --------------------------------------------------------------------

// Msg is any message struct above: JobSpec, JobStatus, Hello, HelloReply,
// SubmitReply, JobRef, JobProgress, JobAudit or JobResult.
// Appends msg's bytes to `out`.
template <class Msg>
void encode(std::string& out, const Msg& msg);
// Reads one message from the front of `bytes`. A truncated field, an
// unknown enum value or a list count its bytes cannot hold is corrupt;
// bytes after the message's last field are not read.
template <class Msg>
Status parse(std::string_view bytes, Msg& msg);

}  // namespace serve
}  // namespace rlccd
