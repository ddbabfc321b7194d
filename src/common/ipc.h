// Length-prefixed pipe protocol for process-isolated workers, and the one
// byte codec under every binary format.
//
// A frame is [type u8][len u32 LE][payload bytes]. Children write result /
// heartbeat frames into a pipe; the supervising parent feeds whatever bytes
// poll() hands it into a FrameDecoder, which reassembles frames and flags a
// stream that ends mid-frame (the signature of a child that died while
// writing, or of the "pipe_truncate" fault point). Both directions survive
// interruption: writes retry on EINTR and short writes, so a frame either
// lands whole or the writer learns it did not, and read_available() retries
// EINTR on the read side, so a signal landing mid-frame never tears a
// stream or wedges a reader. The serve daemon reuses the same frames over
// Unix-domain sockets (serve/protocol.h).
//
// The codec helpers (ipc_append_pod / ipc_parse_pod / ipc_parse_count / ...)
// are the byte-level vocabulary of all five binary formats: the rollout
// wire (rl/isolation/wire), ObsDelta frames (common/telemetry_wire), the
// serve protocol (serve/protocol), training checkpoints (rl/checkpoint) and
// EP-GNN parameter files (nn/serialize). Their decoders return a Status on
// bad bytes and never throw: every count-prefixed list reads its count
// through ipc_parse_count, which rejects a count whose items cannot fit in
// the bytes left before anything is allocated.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace rlccd {

// -- byte codec ---------------------------------------------------------------

template <class T>
void ipc_append_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <class T>
Status ipc_parse_pod(std::string_view bytes, std::size_t& offset, T& v,
                     const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (offset + sizeof(v) > bytes.size()) {
    return Status::corrupt("truncated at byte %zu while reading %s", offset,
                           what);
  }
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  offset += sizeof(v);
  return Status();
}

// Reads a list's item count, stored at the width of `n` (u8, u32 or u64).
// A count whose items, at `min_item_bytes` (> 0) encoded bytes each at the
// least, cannot fit in the bytes left is corrupt: an inflated length field
// fails here, not in the allocation it would size.
template <class T>
Status ipc_parse_count(std::string_view bytes, std::size_t& offset, T& n,
                       std::size_t min_item_bytes, const char* what) {
  static_assert(std::is_unsigned_v<T>);
  RLCCD_TRY(ipc_parse_pod(bytes, offset, n, what));
  const std::size_t left = bytes.size() - offset;
  if (n > left / min_item_bytes) {
    return Status::corrupt("%s %llu needs at least %zu bytes each, %zu left",
                           what, static_cast<unsigned long long>(n),
                           min_item_bytes, left);
  }
  return Status();
}

void ipc_append_string(std::string& out, std::string_view s);
Status ipc_parse_string(std::string_view bytes, std::size_t& offset,
                        std::string& s, const char* what);

void ipc_append_float_vec(std::string& out, const std::vector<float>& v);
Status ipc_parse_float_vec(std::string_view bytes, std::size_t& offset,
                           std::vector<float>& v, const char* what);

// -- frames -------------------------------------------------------------------

enum class FrameType : std::uint8_t {
  kHeartbeat = 1,  // empty payload; "the worker is alive"
  kResult = 2,     // the job's serialized result
  kError = 3,      // human-readable failure description from the child
  kTelemetry = 4,  // ObsDelta (common/telemetry_wire.h): telemetry delta +
                   // the trace events a child recorded since its last ship
};

struct Frame {
  std::uint8_t type = 0;
  std::string payload;
};

// Appends one whole frame: the one writer of the frame layout that
// FrameDecoder reads. `type` is a FrameType or a protocol's own message
// type (serve/protocol.h).
void ipc_append_frame(std::string& out, std::uint8_t type,
                      std::string_view payload);

// Incremental frame reassembly for the supervisor's poll loop. Feed bytes as
// they arrive; next() pops completed frames. After EOF, mid_frame() tells a
// cleanly closed stream from one truncated inside a frame.
class FrameDecoder {
 public:
  // Frames larger than this are a protocol violation (a corrupt length
  // prefix would otherwise make the parent buffer garbage forever).
  static constexpr std::uint32_t kMaxPayload = 1u << 30;

  void feed(const char* data, std::size_t n);
  // Pops the next complete frame into `out`; false when more bytes are
  // needed (or the stream is already in error).
  bool next(Frame& out);
  [[nodiscard]] const Status& error() const { return error_; }
  // True when buffered bytes form an incomplete frame (truncated stream).
  [[nodiscard]] bool mid_frame() const { return pos_ < buf_.size(); }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  Status error_;
};

#ifndef _WIN32

// One anonymous pipe; fds are -1 until create() succeeds. The owner closes
// ends explicitly (the parent/child split means no RAII single owner).
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
};

Status pipe_create(Pipe& out);

// Blocking write of one whole frame, retrying EINTR and short writes.
Status write_frame(int fd, FrameType type, std::string_view payload);

// Writes the frame header announcing `payload.size()` bytes but only the
// first `payload_bytes` of them — the "pipe_truncate" fault point's tool for
// deterministically producing a torn stream.
Status write_truncated_frame(int fd, FrameType type, std::string_view payload,
                             std::size_t payload_bytes);

// Drains the bytes currently readable from `fd` into `decoder`, retrying
// EINTR (a signal landing mid-frame must not tear the stream or wedge the
// reader). Returns on EAGAIN (nonblocking fd with nothing left — `eof`
// stays false), after a short read (the kernel buffer is drained for now),
// on end of stream (`eof` set true; decoder.mid_frame() then tells a clean
// close from a torn write), or with an io_error Status on a real read
// failure. The one poll-loop read path, used by ChildProcess::drain
// (common/child.h) for child pipes and by the serve daemon for client
// connections. `bytes`, when non-null, receives the byte count drained by
// this call (heartbeat bookkeeping wants "did anything arrive", not "did a
// frame complete").
Status read_available(int fd, FrameDecoder& decoder, bool& eof,
                      std::size_t* bytes = nullptr);

#endif  // !_WIN32

}  // namespace rlccd
