#ifndef _WIN32

#include "serve/client.h"

#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/log.h"
#include "serve/socket.h"

namespace rlccd {
namespace serve {

namespace {

double mono_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kReplyTimeoutSec = 30.0;

Status write_msg(int fd, MsgType type, std::string_view payload) {
  return write_frame(fd, static_cast<FrameType>(static_cast<std::uint8_t>(type)),
                     payload);
}

}  // namespace

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

Status ServeClient::connect(const std::string& socket_path,
                            double timeout_sec) {
  socket_path_ = socket_path;
  connect_timeout_sec_ = timeout_sec;
  // The daemon may accept and immediately drop a connection (backpressure,
  // the serve_accept_fail fault, mid-restart): connect(2) then succeeds but
  // the hello handshake dies. Retry the whole connect+handshake until the
  // deadline; only a deliberate refusal (version mismatch, rejected hello)
  // is final.
  const double deadline = mono_sec() + timeout_sec;
  Status last;
  for (;;) {
    const double remaining = deadline - mono_sec();
    if (remaining <= 0.0) {
      return last.ok() ? Status::io_error("connect to %s timed out",
                                          socket_path.c_str())
                       : last;
    }
    last = connect_once(socket_path, remaining);
    if (last.ok() || last.code() == StatusCode::kInvalidArgument) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Status ServeClient::connect_once(const std::string& socket_path,
                                 double timeout_sec) {
  close();
  RLCCD_TRY(unix_connect(socket_path, timeout_sec, fd_));

  Hello hello;
  std::string bytes;
  encode(bytes, hello);
  Status ws = write_msg(fd_, MsgType::kHello, bytes);
  if (!ws.ok()) {
    close();
    return ws;
  }
  Frame reply;
  Status rs = recv_frame(fd_, decoder_, reply, kReplyTimeoutSec);
  if (!rs.ok()) {
    close();
    return rs;
  }
  if (reply.type == static_cast<std::uint8_t>(MsgType::kError)) {
    close();
    return Status::invalid_argument("daemon refused hello: %s",
                                    reply.payload.c_str());
  }
  if (reply.type != static_cast<std::uint8_t>(MsgType::kHelloReply)) {
    close();
    return Status::corrupt("unexpected hello reply type %d",
                           static_cast<int>(reply.type));
  }
  HelloReply hr;
  RLCCD_TRY(parse(reply.payload, hr));
  if (hr.version != kProtocolVersion) {
    close();
    return Status::invalid_argument("daemon speaks protocol v%u, client v%u",
                                    hr.version, kProtocolVersion);
  }
  return Status();
}

Status ServeClient::reconnect() {
  return connect(socket_path_, connect_timeout_sec_);
}

Status ServeClient::request(MsgType type, std::string_view payload,
                            MsgType expect, Frame& reply,
                            double timeout_sec) {
  if (fd_ < 0) {
    return Status::failed_precondition("not connected; call connect() first");
  }
  // One transparent reconnect: the daemon may have dropped this connection
  // (backpressure, injected disconnect, restart) between requests.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status s = write_msg(fd_, type, payload);
    if (s.ok()) {
      // Skip any stray streamed frames (progress from an earlier watch) —
      // request() conversations are strictly request/reply.
      for (;;) {
        s = recv_frame(fd_, decoder_, reply, timeout_sec);
        if (!s.ok()) break;
        if (reply.type == static_cast<std::uint8_t>(MsgType::kProgress) ||
            reply.type == static_cast<std::uint8_t>(MsgType::kAudit) ||
            (reply.type == static_cast<std::uint8_t>(MsgType::kJobStatus) &&
             expect != MsgType::kJobStatus) ||
            (reply.type == static_cast<std::uint8_t>(MsgType::kStatsReply) &&
             expect != MsgType::kStatsReply)) {
          continue;
        }
        break;
      }
      if (s.ok()) {
        if (reply.type == static_cast<std::uint8_t>(MsgType::kError)) {
          // The daemon's reject reason travels verbatim: callers (and
          // tests) match on the exact text the daemon produced, so no
          // "daemon:" prefix is prepended here.
          return Status::invalid_argument("%s", reply.payload.c_str());
        }
        if (reply.type != static_cast<std::uint8_t>(expect)) {
          return Status::corrupt("expected %s reply, got type %d",
                                 msg_type_name(expect),
                                 static_cast<int>(reply.type));
        }
        return Status();
      }
    }
    if (attempt == 0) {
      RLCCD_LOG_WARN("serve client: %s; reconnecting", s.to_string().c_str());
      Status rc = reconnect();
      if (!rc.ok()) return rc;
      continue;
    }
    return s;
  }
  return Status::io_error("unreachable");
}

Status ServeClient::submit(const JobSpec& spec, SubmitReply& reply) {
  std::string bytes;
  encode(bytes, spec);
  Frame frame;
  RLCCD_TRY(request(MsgType::kSubmit, bytes, MsgType::kSubmitReply, frame,
                    kReplyTimeoutSec));
  return parse(frame.payload, reply);
}

Status ServeClient::poll_job(std::uint64_t job_id, JobStatus& status) {
  JobRef ref{job_id};
  std::string bytes;
  encode(bytes, ref);
  Frame frame;
  RLCCD_TRY(request(MsgType::kPoll, bytes, MsgType::kJobStatus, frame,
                    kReplyTimeoutSec));
  return parse(frame.payload, status);
}

Status ServeClient::cancel(std::uint64_t job_id, JobStatus& status) {
  JobRef ref{job_id};
  std::string bytes;
  encode(bytes, ref);
  Frame frame;
  RLCCD_TRY(request(MsgType::kCancel, bytes, MsgType::kJobStatus, frame,
                    kReplyTimeoutSec));
  return parse(frame.payload, status);
}

Status ServeClient::wait(std::uint64_t job_id, JobStatus& final_status,
                         double timeout_sec, const ProgressFn& on_progress,
                         const AuditFn& on_audit) {
  const double deadline = timeout_sec > 0.0 ? mono_sec() + timeout_sec : 0.0;
  bool watching = false;
  for (;;) {
    if (deadline > 0.0 && mono_sec() >= deadline) {
      return Status::io_error("timeout waiting for job %llu",
                              static_cast<unsigned long long>(job_id));
    }
    if (fd_ < 0) {
      Status rc = reconnect();
      if (!rc.ok()) return rc;
      watching = false;
    }
    if (!watching) {
      JobRef ref{job_id};
      std::string bytes;
      encode(bytes, ref);
      Status ws = write_msg(fd_, MsgType::kWatch, bytes);
      if (!ws.ok()) {
        close();
        continue;  // reconnect above
      }
      watching = true;
    }
    Frame frame;
    double wait_sec = 1.0;
    if (deadline > 0.0) wait_sec = std::min(wait_sec, deadline - mono_sec());
    Status rs = recv_frame(fd_, decoder_, frame, wait_sec);
    if (!rs.ok()) {
      if (rs.to_string().find("timeout") != std::string::npos) continue;
      // Connection lost mid-watch (daemon dropped us, injected disconnect):
      // reconnect and re-watch; the daemon still owns the job state.
      RLCCD_LOG_WARN("serve client: watch interrupted (%s); re-watching",
                     rs.to_string().c_str());
      close();
      continue;
    }
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::kJobStatus: {
        JobStatus status;
        RLCCD_TRY(parse(frame.payload, status));
        if (status.job_id == job_id && job_state_terminal(status.state)) {
          final_status = status;
          return Status();
        }
        break;
      }
      case MsgType::kProgress: {
        JobProgress progress;
        if (parse(frame.payload, progress).ok() &&
            on_progress && progress.job_id == job_id) {
          on_progress(progress);
        }
        break;
      }
      case MsgType::kAudit: {
        JobAudit audit;
        if (parse(frame.payload, audit).ok() && on_audit &&
            audit.job_id == job_id) {
          on_audit(audit.job_id, audit.line);
        }
        break;
      }
      case MsgType::kError:
        // Verbatim, like request(): the daemon's words are the diagnosis.
        return Status::invalid_argument("%s", frame.payload.c_str());
      default:
        break;  // tolerate unknown streamed frames
    }
  }
}

Status ServeClient::stats_json(std::string& json_out) {
  Frame frame;
  RLCCD_TRY(request(MsgType::kStats, {}, MsgType::kStatsReply, frame,
                    kReplyTimeoutSec));
  json_out = std::move(frame.payload);
  return Status();
}

Status ServeClient::watch_stats(const StatsFn& on_stats, int count,
                                double timeout_sec) {
  if (fd_ < 0) {
    return Status::failed_precondition("not connected; call connect() first");
  }
  RLCCD_TRY(write_msg(fd_, MsgType::kStatsWatch, {}));
  const double deadline =
      timeout_sec > 0.0 ? mono_sec() + timeout_sec : 0.0;
  int seen = 0;
  for (;;) {
    double wait_sec = 1.0;
    if (deadline > 0.0) {
      wait_sec = std::min(wait_sec, deadline - mono_sec());
      if (wait_sec <= 0.0) {
        // No terminal frame exists for a stats stream; a timeout after at
        // least one snapshot is a normal end of watching.
        return seen > 0 ? Status()
                        : Status::io_error("timeout waiting for stats");
      }
    }
    Frame frame;
    Status rs = recv_frame(fd_, decoder_, frame, wait_sec);
    if (!rs.ok()) {
      if (rs.to_string().find("timeout") != std::string::npos) continue;
      return rs;
    }
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::kStatsReply:
        ++seen;
        if (on_stats && !on_stats(frame.payload)) return Status();
        if (count > 0 && seen >= count) return Status();
        break;
      case MsgType::kError:
        return Status::invalid_argument("%s", frame.payload.c_str());
      default:
        break;  // tolerate stray streamed frames from an earlier watch
    }
  }
}

Status ServeClient::metrics_text(std::string& text_out) {
  Frame frame;
  RLCCD_TRY(request(MsgType::kMetrics, {}, MsgType::kMetricsReply, frame,
                    kReplyTimeoutSec));
  text_out = std::move(frame.payload);
  return Status();
}

Status ServeClient::shutdown() {
  Frame frame;
  return request(MsgType::kShutdown, {}, MsgType::kShutdownReply, frame,
                 kReplyTimeoutSec);
}

}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32
