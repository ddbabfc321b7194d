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
// Five binary formats sit on the codec: the rollout wire
// (rl/isolation/wire), ObsDelta frames (common/telemetry_wire), the serve
// protocol (serve/protocol), training checkpoints (rl/checkpoint) and EP-GNN
// parameter files (nn/serialize). Each states its layout once, as a field
// list: a function template over a walker that names every field in wire
// order, with its wire width and, for each list, its count width and
// smallest encoded item size. ByteWriter walks a field list over a const
// value and appends each field; ByteReader walks it over a mutable value
// and parses each field, so a format's encoder and decoder cannot disagree.
// Decoding returns a Status on bad bytes and never throws: every list count
// is read through ipc_parse_count, which rejects a count whose items cannot
// fit in the bytes left before anything is allocated. The ipc_append_* /
// ipc_parse_* helpers under the walkers stay public for one-off payloads.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
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

// -- field lists --------------------------------------------------------------

// The wire width a field list gives a value (ByteWriter/ByteReader::as) or a
// list's item count (list, count): as(kU64, summary.nve, "nve").
template <class T>
struct WireWidth {};
inline constexpr WireWidth<std::uint8_t> kU8{};
inline constexpr WireWidth<std::uint32_t> kU32{};
inline constexpr WireWidth<std::uint64_t> kU64{};
inline constexpr WireWidth<std::int32_t> kI32{};
inline constexpr WireWidth<std::int64_t> kI64{};

// Appends the fields a field list names. Every method returns OK, so a
// field list's status on the write side reflects only its own checks (a
// version byte, a depth cap), which hold for every value the program builds.
// `what`, `min_item_bytes` and `max_items` matter only to the reader.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  template <class T>
  Status pod(const T& v, const char* /*what*/) {
    ipc_append_pod(out_, v);
    return Status();
  }
  template <class Wire, class T>
  Status as(WireWidth<Wire>, const T& v, const char* /*what*/) {
    ipc_append_pod(out_, static_cast<Wire>(v));
    return Status();
  }
  template <class E>
  Status enum8(const E& v, E /*max*/, const char* /*what*/) {
    ipc_append_pod(out_, static_cast<std::uint8_t>(v));
    return Status();
  }
  Status string(std::string_view s, const char* /*what*/) {
    ipc_append_string(out_, s);
    return Status();
  }
  // A u64 count, then the values.
  Status floats(const std::vector<float>& v, const char* /*what*/) {
    ipc_append_float_vec(out_, v);
    return Status();
  }
  // Exactly `n` values, no count: the reader knows n.
  Status floats(const float* data, std::size_t n, const char* /*what*/) {
    if (n > 0) {
      out_.append(reinterpret_cast<const char*>(data), n * sizeof(float));
    }
    return Status();
  }
  // The item count at `Count` width, then `item(x)` for each item x.
  template <class Count, class C, class F>
  Status list(WireWidth<Count>, const C& items,
              std::size_t /*min_item_bytes*/, const char* /*what*/, F&& item,
              std::size_t /*max_items*/ = 0) {
    ipc_append_pod(out_, static_cast<Count>(items.size()));
    for (const auto& x : items) RLCCD_TRY(item(x));
    return Status();
  }
  // One count `n` at `Count` width shared by parallel containers, whose
  // items the field list then walks itself (interleaved, or checked
  // against live objects).
  template <class Count, class... C>
  Status count(WireWidth<Count>, std::size_t n,
               std::size_t /*min_item_bytes*/, const char* /*what*/,
               const C&... /*parallel*/) {
    ipc_append_pod(out_, static_cast<Count>(n));
    return Status();
  }
  Status finish() { return Status(); }

 private:
  std::string& out_;
};

// Parses the fields a field list names from the front of `bytes`. A read
// fails with a corrupt Status on truncation; enum8 also on a value above
// `max`; list and count on a count that cannot fit in the bytes left, or
// that exceeds `max_items`, before any container grows; finish() on
// trailing bytes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <class T>
  Status pod(T& v, const char* what) {
    return ipc_parse_pod(bytes_, offset_, v, what);
  }
  template <class Wire, class T>
  Status as(WireWidth<Wire>, T& v, const char* what) {
    Wire wire{};
    RLCCD_TRY(ipc_parse_pod(bytes_, offset_, wire, what));
    v = static_cast<T>(wire);
    return Status();
  }
  template <class E>
  Status enum8(E& v, E max, const char* what) {
    std::uint8_t raw = 0;
    RLCCD_TRY(ipc_parse_pod(bytes_, offset_, raw, what));
    if (raw > static_cast<std::uint8_t>(max)) {
      return Status::corrupt("unknown %s %u", what, raw);
    }
    v = static_cast<E>(raw);
    return Status();
  }
  Status string(std::string& s, const char* what) {
    return ipc_parse_string(bytes_, offset_, s, what);
  }
  Status floats(std::vector<float>& v, const char* what) {
    return ipc_parse_float_vec(bytes_, offset_, v, what);
  }
  Status floats(float* data, std::size_t n, const char* what) {
    if (n > (bytes_.size() - offset_) / sizeof(float)) {
      return Status::corrupt("truncated at byte %zu while reading %s",
                             offset_, what);
    }
    if (n > 0) {
      std::memcpy(data, bytes_.data() + offset_, n * sizeof(float));
      offset_ += n * sizeof(float);
    }
    return Status();
  }
  template <class Count, class C, class F>
  Status list(WireWidth<Count>, C& items, std::size_t min_item_bytes,
              const char* what, F&& item,
              std::size_t max_items = std::numeric_limits<std::size_t>::max()) {
    Count n = 0;
    RLCCD_TRY(ipc_parse_count(bytes_, offset_, n, min_item_bytes, what));
    if (n > max_items) {
      return Status::corrupt("%s %llu exceeds %zu", what,
                             static_cast<unsigned long long>(n), max_items);
    }
    items.resize(n);
    for (auto& x : items) RLCCD_TRY(item(x));
    return Status();
  }
  template <class Count, class... C>
  Status count(WireWidth<Count>, std::size_t& n, std::size_t min_item_bytes,
               const char* what, C&... parallel) {
    Count wire = 0;
    RLCCD_TRY(ipc_parse_count(bytes_, offset_, wire, min_item_bytes, what));
    n = static_cast<std::size_t>(wire);
    (parallel.resize(n), ...);
    return Status();
  }
  Status finish() const {
    if (offset_ != bytes_.size()) {
      return Status::corrupt("%zu trailing bytes after the last field",
                             bytes_.size() - offset_);
    }
    return Status();
  }

 private:
  std::string_view bytes_;
  std::size_t offset_ = 0;
};

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
