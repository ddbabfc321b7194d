#include "common/ipc.h"

#include <cerrno>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace rlccd {

namespace {
constexpr std::size_t kFrameHeader = 1 + sizeof(std::uint32_t);  // type, len
}  // namespace

void ipc_append_string(std::string& out, std::string_view s) {
  ipc_append_pod(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

Status ipc_parse_string(std::string_view bytes, std::size_t& offset,
                        std::string& s, const char* what) {
  std::uint32_t n = 0;
  RLCCD_TRY(ipc_parse_count(bytes, offset, n, 1, what));
  s.assign(bytes.data() + offset, n);
  offset += n;
  return Status();
}

void ipc_append_float_vec(std::string& out, const std::vector<float>& v) {
  ipc_append_pod(out, static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) {
    out.append(reinterpret_cast<const char*>(v.data()),
               v.size() * sizeof(float));
  }
}

Status ipc_parse_float_vec(std::string_view bytes, std::size_t& offset,
                           std::vector<float>& v, const char* what) {
  std::uint64_t n = 0;
  RLCCD_TRY(ipc_parse_count(bytes, offset, n, sizeof(float), what));
  v.resize(static_cast<std::size_t>(n));
  if (n > 0) {
    std::memcpy(v.data(), bytes.data() + offset, n * sizeof(float));
    offset += n * sizeof(float);
  }
  return Status();
}

// -- frames -------------------------------------------------------------------

void ipc_append_frame(std::string& out, std::uint8_t type,
                      std::string_view payload) {
  ipc_append_pod(out, type);
  ipc_append_pod(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
}

// -- FrameDecoder -------------------------------------------------------------

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (!error_.ok()) return;
  buf_.append(data, n);
}

bool FrameDecoder::next(Frame& out) {
  if (!error_.ok()) return false;
  if (buf_.size() - pos_ < kFrameHeader) {
    // Reclaim consumed prefix lazily so feed() stays append-only.
    if (pos_ > 0 && pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    }
    return false;
  }
  std::uint32_t len = 0;
  std::memcpy(&len, buf_.data() + pos_ + 1, sizeof(len));
  if (len > kMaxPayload) {
    error_ = Status::corrupt("frame length %u exceeds %u", len, kMaxPayload);
    return false;
  }
  if (buf_.size() - pos_ - kFrameHeader < len) return false;
  out.type = static_cast<std::uint8_t>(buf_[pos_]);
  out.payload.assign(buf_, pos_ + kFrameHeader, len);
  pos_ += kFrameHeader + len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return true;
}

#ifndef _WIN32

Status pipe_create(Pipe& out) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    return Status::io_error("pipe: %s", std::strerror(errno));
  }
  out.read_fd = fds[0];
  out.write_fd = fds[1];
  return Status();
}

namespace {

Status write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::io_error("pipe write: %s", std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
  return Status();
}

}  // namespace

Status write_frame(int fd, FrameType type, std::string_view payload) {
  return write_truncated_frame(fd, type, payload, payload.size());
}

Status write_truncated_frame(int fd, FrameType type, std::string_view payload,
                             std::size_t payload_bytes) {
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  ipc_append_frame(frame, static_cast<std::uint8_t>(type), payload);
  const std::size_t n = payload_bytes < payload.size() ? payload_bytes
                                                       : payload.size();
  return write_all(fd, frame.data(), kFrameHeader + n);
}

Status read_available(int fd, FrameDecoder& decoder, bool& eof,
                      std::size_t* bytes) {
  eof = false;
  if (bytes != nullptr) *bytes = 0;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      decoder.feed(buf, static_cast<std::size_t>(r));
      if (bytes != nullptr) *bytes += static_cast<std::size_t>(r);
      if (static_cast<std::size_t>(r) < sizeof(buf)) return Status();
      continue;
    }
    if (r == 0) {
      eof = true;
      return Status();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status();
    return Status::io_error("read: %s", std::strerror(errno));
  }
}

#endif  // !_WIN32

}  // namespace rlccd
