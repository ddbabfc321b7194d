#include "common/child.h"

#include "common/log.h"
#include "common/rng.h"

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>

namespace rlccd {

const char* worker_failure_name(WorkerFailure f) {
  switch (f) {
    case WorkerFailure::kNone: return "none";
    case WorkerFailure::kExit: return "exit";
    case WorkerFailure::kSignal: return "signal";
    case WorkerFailure::kTimeout: return "timeout";
    case WorkerFailure::kProtocol: return "protocol";
  }
  return "?";
}

double retry_backoff_sec(double base_sec, std::uint64_t seed,
                         std::uint64_t key, int retry) {
  constexpr double kCapSec = 2.0;
  Rng jitter(seed ^ (0x9E3779B97F4A7C15ull * (key + 1)) ^
             static_cast<std::uint64_t>(retry));
  const double delay =
      std::min(base_sec * std::pow(2.0, static_cast<double>(retry)), kCapSec);
  return delay * (1.0 + 0.5 * jitter.uniform());
}

double mono_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#ifndef _WIN32

namespace {

// `killed`: the parent SIGKILLed the child. `stream_bad`: the pipe carried
// a malformed or truncated frame, or an explicit error frame.
WorkerExit classify_worker_exit(int wait_status, bool killed, bool stream_bad,
                                bool got_result) {
  WorkerExit out;
  if (got_result) return out;
  if (killed) {
    out.failure = WorkerFailure::kTimeout;
    out.term_signal = SIGKILL;
  } else if (stream_bad ||
             (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0)) {
    // Malformed or truncated stream, an explicit error frame, or a clean
    // exit that never produced a result: the protocol was violated.
    out.failure = WorkerFailure::kProtocol;
  } else if (WIFEXITED(wait_status)) {
    out.failure = WorkerFailure::kExit;
    out.exit_code = WEXITSTATUS(wait_status);
  } else if (WIFSIGNALED(wait_status)) {
    out.failure = WorkerFailure::kSignal;
    out.term_signal = WTERMSIG(wait_status);
  } else {
    out.failure = WorkerFailure::kProtocol;
  }
  return out;
}

}  // namespace

// -- child side ---------------------------------------------------------------

Status ChildPipe::send(FrameType type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_frame(fd_, type, payload);
}

Heartbeat::Heartbeat(ChildPipe& pipe, double interval_sec,
                     std::function<void()> on_beat)
    : pipe_(pipe), on_beat_(std::move(on_beat)) {
  // A failed write means the parent is gone and nobody listens for beats.
  if (interval_sec <= 0.0 || !pipe_.send(FrameType::kHeartbeat, {}).ok()) {
    return;
  }
  ship();
  thread_ = std::thread([this, interval_sec] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::duration<double>(interval_sec),
                           [this] { return stop_; })) {
      lock.unlock();
      if (!pipe_.send(FrameType::kHeartbeat, {}).ok()) return;
      ship();
      lock.lock();
    }
  });
}

Heartbeat::~Heartbeat() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }
  ship();  // final flush
}

void Heartbeat::ship() {
  try {
    on_beat_();
  } catch (const std::exception& e) {
    RLCCD_LOG_ERROR("heartbeat: telemetry ship failed: %s", e.what());
  }
}

// -- parent side --------------------------------------------------------------

Status ChildProcess::spawn(double deadline_sec, double silence_sec,
                           const Body& body) {
  // A child whose parent-side read end vanished must see EPIPE, not die.
  static const bool sigpipe_ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)sigpipe_ignored;

  Pipe pipe;
  RLCCD_TRY(pipe_create(pipe));
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(pipe.read_fd);
    ::close(pipe.write_fd);
    return Status::io_error("fork: %s", std::strerror(err));
  }
  if (pid == 0) {
    ::close(pipe.read_fd);
    ChildPipe out(pipe.write_fd);
    std::string result;
    try {
      result = body(out);
    } catch (const std::exception& e) {
      (void)out.send(FrameType::kError, e.what());
      _exit(4);
    } catch (...) {
      (void)out.send(FrameType::kError, "unknown exception");
      _exit(4);
    }
    _exit(out.send(FrameType::kResult, result).ok() ? 0 : 5);
  }
  ::close(pipe.write_fd);
  ::fcntl(pipe.read_fd, F_SETFL, O_NONBLOCK);
  pid_ = pid;
  fd_ = pipe.read_fd;
  decoder_ = FrameDecoder();
  deadline_sec_ = deadline_sec;
  silence_sec_ = silence_sec;
  started_ = mono_sec();
  last_activity_ = started_;
  got_result_ = false;
  result_.clear();
  error_.clear();
  kill_reason_ = nullptr;
  return Status();
}

bool ChildProcess::drain(
    const std::function<bool(const Frame& frame)>& on_frame) {
  bool eof = false;
  std::size_t bytes = 0;
  const Status rs = read_available(fd_, decoder_, eof, &bytes);
  if (bytes > 0) last_activity_ = mono_sec();
  Frame frame;
  while (decoder_.next(frame)) {
    switch (static_cast<FrameType>(frame.type)) {
      case FrameType::kHeartbeat:
        break;  // the silence clock is already reset
      case FrameType::kResult:
        got_result_ = true;
        result_ = std::move(frame.payload);
        break;
      case FrameType::kError:
        error_ = std::move(frame.payload);
        break;
      default:
        if (!on_frame(frame)) {
          error_ = "unexpected frame type " +
                   std::to_string(static_cast<int>(frame.type));
        }
        break;
    }
  }
  if (!rs.ok()) {
    RLCCD_LOG_WARN("child %d: pipe: %s", pid_, rs.to_string().c_str());
    return true;
  }
  return eof;  // the attempt is over, whatever happened
}

const char* ChildProcess::enforce(double now) {
  const char* reason = nullptr;
  if (deadline_sec_ > 0.0 && now - started_ > deadline_sec_) {
    reason = "deadline exceeded";
  } else if (silence_sec_ > 0.0 && now - last_activity_ > silence_sec_) {
    reason = "heartbeat silence";
  }
  return reason != nullptr && kill(reason) ? reason : nullptr;
}

bool ChildProcess::kill(const char* reason) {
  if (pid_ <= 0 || kill_reason_ != nullptr) return false;
  kill_reason_ = reason;
  ::kill(pid_, SIGKILL);
  // The EOF that follows ends drain(); reap() classifies the attempt.
  return true;
}

double ChildProcess::next_check() const {
  double next = std::numeric_limits<double>::infinity();
  // A killed attempt only waits for its EOF; its expired deadline must not
  // turn the caller's poll into a spin.
  if (kill_reason_ != nullptr) return next;
  if (deadline_sec_ > 0.0) next = std::min(next, started_ + deadline_sec_);
  if (silence_sec_ > 0.0) next = std::min(next, last_activity_ + silence_sec_);
  return next;
}

ChildProcess::Exit ChildProcess::reap() {
  ::close(fd_);
  fd_ = -1;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;

  const bool killed = kill_reason_ != nullptr;
  const bool stream_bad =
      !decoder_.error().ok() || decoder_.mid_frame() || !error_.empty();
  return Exit{classify_worker_exit(status, killed, stream_bad, got_result_),
              std::move(result_),
              killed ? std::string(kill_reason_) : std::move(error_)};
}

ChildProcess::~ChildProcess() {
  if (!running()) return;
  kill("abandoned");
  reap();
}

#endif  // !_WIN32

}  // namespace rlccd
