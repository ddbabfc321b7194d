// Decoder mutation sweep over every decoder of untrusted bytes: the rollout
// wire, ObsDelta frames, training checkpoints (payload mutated, CRC
// re-sealed), EP-GNN parameter files, the serve protocol messages and JSON.
// Each meets every truncation of its seed encodings, a u32 and a u64 length
// field inflated at every offset, seeded flips of 1-4 bytes, and splices of
// one seed's prefix onto another seed's suffix. The properties: no
// exception escapes a decoder, and (JSON aside) re-encoding an OK decode
// reaches a fixed point. The mutants derive from fixed seeds, so a failure
// names a mutant that reproduces.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/ipc.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/telemetry_wire.h"
#include "helpers/temp_path.h"
#include "nn/serialize.h"
#include "rl/checkpoint.h"
#include "rl/isolation/wire.h"
#include "serve/protocol.h"

namespace rlccd {
namespace {

constexpr int kFlips = 20000;
constexpr int kSplices = 2000;

struct Mutant {
  const char* kind;   // truncate | u32 | u64 | flip | splice
  std::size_t index;  // cut point, offset, or draw number
  std::string_view bytes;
};

std::string describe(const Mutant& m) {
  std::string out = std::string(m.kind) + " #" + std::to_string(m.index) +
                    " (" + std::to_string(m.bytes.size()) + " B):";
  char hex[4];
  for (std::size_t i = 0; i < m.bytes.size() && i < 48; ++i) {
    std::snprintf(hex, sizeof(hex), " %02x",
                  static_cast<unsigned char>(m.bytes[i]));
    out += hex;
  }
  return out;
}

template <class T>
void overwrite_everywhere(const std::string& seed, const char* kind, T value,
                          const std::function<void(const Mutant&)>& visit) {
  std::string m;
  for (std::size_t at = 0; at + sizeof(T) <= seed.size(); ++at) {
    m = seed;
    std::memcpy(m.data() + at, &value, sizeof(T));
    visit(Mutant{kind, at, m});
  }
}

void for_each_mutant(const std::vector<std::string>& seeds,
                     const std::function<void(const Mutant&)>& visit) {
  for (const std::string& seed : seeds) {
    for (std::size_t cut = 0; cut < seed.size(); ++cut) {
      visit(Mutant{"truncate", cut, std::string_view(seed).substr(0, cut)});
    }
    // A count a one-byte-per-item guard lets through, then counts no input
    // can hold (2^62 floats is 0 bytes in a wrapped 64-bit size).
    overwrite_everywhere(seed, "u32", static_cast<std::uint32_t>(seed.size()),
                         visit);
    overwrite_everywhere(seed, "u32", ~std::uint32_t{0}, visit);
    overwrite_everywhere(seed, "u64", std::uint64_t{1} << 62, visit);
    overwrite_everywhere(seed, "u64", ~std::uint64_t{0}, visit);
  }
  Rng rng(0xF022);
  std::string m;
  for (int i = 0; i < kFlips; ++i) {
    m = seeds[rng.uniform_int(seeds.size())];
    const std::uint64_t n = 1 + rng.uniform_int(std::uint64_t{4});
    for (std::uint64_t k = 0; k < n; ++k) {
      m[rng.uniform_int(m.size())] ^=
          static_cast<char>(1 + rng.uniform_int(std::uint64_t{255}));
    }
    visit(Mutant{"flip", static_cast<std::size_t>(i), m});
  }
  for (int i = 0; i < kSplices; ++i) {
    const std::size_t a = rng.uniform_int(seeds.size());
    const std::size_t b =
        (a + 1 + rng.uniform_int(seeds.size() - 1)) % seeds.size();
    m = seeds[a].substr(0, rng.uniform_int(seeds[a].size() + 1));
    m += seeds[b].substr(rng.uniform_int(seeds[b].size() + 1));
    visit(Mutant{"splice", static_cast<std::size_t>(i), m});
  }
}

// One decoder under test: `decode` parses bytes into the harness's value,
// `encode` (empty for JSON) re-encodes that value.
struct Codec {
  std::function<Status(std::string_view)> decode;
  std::function<std::string()> encode;
  // Check the fixed point on every Nth OK decode: the file formats
  // re-encode through their fsyncing save path.
  int fixed_point_stride = 1;
};

void sweep(const char* name, const std::vector<std::string>& seeds,
           const Codec& codec) {
  ASSERT_GE(seeds.size(), 2u);
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(codec.decode(seed).ok()) << name << ": seeds must decode";
  }
  int mutants = 0, ok = 0, thrown = 0, unstable = 0;
  for_each_mutant(seeds, [&](const Mutant& m) {
    ++mutants;
    try {
      if (!codec.decode(m.bytes).ok()) return;
      ++ok;
      if (!codec.encode || ok % codec.fixed_point_stride != 0) return;
      const std::string once = codec.encode();
      if (!codec.decode(once).ok() || codec.encode() != once) {
        if (++unstable <= 3) {
          ADD_FAILURE() << name << ": no fixed point after " << describe(m);
        }
      }
    } catch (const std::exception& e) {
      if (++thrown <= 3) {
        ADD_FAILURE() << name << " threw " << e.what() << " on "
                      << describe(m);
      }
    } catch (...) {
      if (++thrown <= 3) {
        ADD_FAILURE() << name << " threw a non-std exception on "
                      << describe(m);
      }
    }
  });
  EXPECT_EQ(thrown, 0) << name;
  EXPECT_EQ(unstable, 0) << name;
  // Neither side may be empty, or the sweep proves nothing.
  EXPECT_GT(ok, 0) << name;
  EXPECT_LT(ok, mutants) << name;
  ::testing::Test::RecordProperty(std::string(name) + "_mutants", mutants);
  ::testing::Test::RecordProperty(std::string(name) + "_ok", ok);
}

using testing::temp_path;

// The file a file-backed decoder reads each mutant from, rewritten in place:
// a truncating open per mutant makes the file system flush on close, which
// would dominate the sweep's run time.
class MutantFile {
 public:
  explicit MutantFile(std::string path)
      : path_(std::move(path)),
        fd_(::open(path_.c_str(), O_RDWR | O_CREAT, 0644)) {}
  ~MutantFile() {
    ::close(fd_);
    std::remove(path_.c_str());
  }
  MutantFile(const MutantFile&) = delete;
  MutantFile& operator=(const MutantFile&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool write(std::string_view bytes) const {
    return ::pwrite(fd_, bytes.data(), bytes.size(), 0) ==
               static_cast<ssize_t>(bytes.size()) &&
           ::ftruncate(fd_, static_cast<off_t>(bytes.size())) == 0;
  }

 private:
  std::string path_;
  int fd_;
};

std::string read_all(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(read_file(path, bytes).ok()) << path;
  return bytes;
}

TEST(DecoderFuzz, RolloutWire) {
  RolloutWire rich;
  rich.outcome.summary.wns = -1.5;
  rich.outcome.summary.tns = -12.5;
  rich.outcome.summary.nve = 9;
  rich.outcome.summary.num_endpoints = 120;
  rich.outcome.reward = 0.625;
  rich.outcome.flow_ran = true;
  rich.outcome.state_hash = Hash128{0x0123456789abcdefull, 0xfedcba98ull};
  rich.steps = 2;
  rich.selection = {PinId(7), PinId(4095)};
  rich.grads = {{1.0f, -2.5f}, {}, {0.0f, 3.25f, -0.125f}};
  AuditStep step;
  step.chosen = 11;
  step.slack = -0.375;
  step.log_prob = -1.25;
  step.entropy = 0.5;
  step.top_probs = {{11, 0.75}, {2, 0.125}};
  step.masked = {{9, 0.8125}};
  rich.audit.steps = {step, step};
  rich.telemetry.counters = {{"sta.full_runs", 4}};
  rich.telemetry.gauges = {{"test.gauge", -3}};
  MetricsHistogram::Snapshot h;
  h.merge_value(0.25, -2);
  h.merge_value(1.5, 1);
  rich.telemetry.histograms = {{"flow.seconds", h}};
  SpanNode& rollout = rich.telemetry.spans.child("rollout");
  rollout.count = 1;
  rollout.total_sec = 0.25;
  rollout.child("flow").count = 1;

  std::vector<std::string> seeds(2);
  encode_rollout_wire(rich, seeds[0]);
  encode_rollout_wire(RolloutWire{}, seeds[1]);
  RolloutWire value;
  sweep("rollout_wire", seeds,
        {[&](std::string_view b) {
           value = RolloutWire{};
           return decode_rollout_wire(b, value);
         },
         [&] {
           std::string out;
           encode_rollout_wire(value, out);
           return out;
         }});
}

TEST(DecoderFuzz, ObsDelta) {
  ObsDelta rich;
  rich.seq = 42;
  rich.source_pid = 1234;
  rich.telemetry.counters = {{"test.alpha", 7}, {"test.beta", 1}};
  rich.telemetry.gauges = {{"test.depth", -3}};
  MetricsHistogram::Snapshot h;
  h.merge_value(0.5, -1);
  h.merge_value(2.0, 1);
  rich.telemetry.histograms = {{"test.hist", h}};
  SpanNode& flow = rich.telemetry.spans.child("flow");
  flow.count = 2;
  flow.total_sec = 1.5;
  flow.child("sta").count = 8;
  rich.trace_events = {{"rollout", 1.0, 0.5, 3},
                       {"mark", 2.0, -1.0, 0},
                       {"train/iteration", 2.5, -1.0, 1}};

  ObsDelta value;
  sweep("obs_delta", {rich.encode(), ObsDelta{}.encode()},
        {[&](std::string_view b) {
           value = ObsDelta{};
           return value.decode(b);
         },
         [&] { return value.encode(); }});
}

TEST(DecoderFuzz, Checkpoint) {
  TrainCheckpoint rich;
  rich.seed = 17;
  rich.workers = 4;
  rich.next_iter = 5;
  rich.baseline = -0.375;
  rich.baseline_init = true;
  rich.stall = 2;
  rich.rng_state = 0xDEADBEEFCAFEull;
  rich.params = {{1.0f, 2.0f, 3.0f, 4.0f}, {0.5f}};
  rich.param_shapes = {{2, 2}, {1, 1}};
  rich.adam.t = 9;
  rich.adam.m = {{0.1f, 0.2f, 0.3f, 0.4f}, {0.9f}};
  rich.adam.v = {{0.01f, 0.02f, 0.03f, 0.04f}, {0.81f}};
  rich.stats.begin_tns = -123.5;
  rich.stats.best_selection = {PinId(3), PinId(11)};
  rich.stats.history = {{-0.5, -60.0, -59.0, -58.0, 6.0, 1.5, 0.25, -0.5}};
  rich.stats.iterations = 1;

  // File: magic[10] | u32 version | u64 payload size | u32 CRC | payload.
  // The payload is what mutates; the header is re-sealed around it.
  constexpr std::size_t kPrefix = 10 + 4;
  constexpr std::size_t kHeader = kPrefix + 8 + 4;
  const std::string saved = temp_path("fuzz_ckpt_saved.rlccd");
  std::vector<std::string> seeds;
  for (const TrainCheckpoint& c : {rich, TrainCheckpoint{}}) {
    ASSERT_TRUE(save_checkpoint(c, saved).ok());
    seeds.push_back(read_all(saved).substr(kHeader));
  }
  const std::string prefix = read_all(saved).substr(0, kPrefix);

  MutantFile file(temp_path("fuzz_ckpt_mutant.rlccd"));
  std::string framed;
  TrainCheckpoint value;
  sweep("checkpoint", seeds,
        {[&](std::string_view payload) {
           framed = prefix;
           ipc_append_pod(framed, static_cast<std::uint64_t>(payload.size()));
           ipc_append_pod(framed, crc32(payload));
           framed.append(payload);
           if (!file.write(framed)) return Status::io_error("mutant write");
           value = TrainCheckpoint{};
           return load_checkpoint(value, file.path());
         },
         [&] {
           EXPECT_TRUE(save_checkpoint(value, saved).ok());
           return read_all(saved).substr(kHeader);
         },
         /*fixed_point_stride=*/32});
  std::remove(saved.c_str());
}

TEST(DecoderFuzz, ParameterFile) {
  const auto shaped = [](float base) {
    return std::vector<Tensor>{
        Tensor::from_data({base, 2.0f, -3.0f, 4.5f, 0.0f, 1e-3f}, 2, 3),
        Tensor::from_data({base * 2.0f, -1.0f, 7.25f}, 1, 3)};
  };
  const std::string saved = temp_path("fuzz_params_saved.bin");
  std::vector<std::string> seeds;
  for (float base : {1.0f, -0.5f}) {
    ASSERT_TRUE(save_parameters(shaped(base), saved).ok());
    seeds.push_back(read_all(saved));
  }

  MutantFile file(temp_path("fuzz_params_mutant.bin"));
  std::vector<Tensor> value = shaped(0.0f);
  sweep("parameter_file", seeds,
        {[&](std::string_view bytes) {
           if (!file.write(bytes)) return Status::io_error("mutant write");
           return load_parameters(value, file.path());
         },
         [&] {
           EXPECT_TRUE(save_parameters(value, saved).ok());
           return read_all(saved);
         },
         /*fixed_point_stride=*/32});
  std::remove(saved.c_str());
}

template <class T>
std::string encoded(const T& v) {
  std::string out;
  serve::encode(out, v);
  return out;
}

// Sweeps a serve message's codec, seeded with `rich` and a default T.
template <class T>
void sweep_serve(const char* name, const T& rich) {
  T value;
  sweep(name, {encoded(rich), encoded(T{})},
        {[&value](std::string_view b) {
           value = T{};
           return serve::parse(b, value);
         },
         [&value] { return encoded(value); }});
}

TEST(DecoderFuzz, ServeProtocol) {
  using namespace serve;
  JobSpec spec;
  spec.session = "chip-a.v2";
  spec.kind = JobKind::kNoop;
  spec.block = "block7";
  spec.seed = 0xDEADBEEFull;
  spec.priority = -3;
  sweep_serve("job_spec", spec);

  JobStatus status;
  status.job_id = 77;
  status.state = JobState::kDrained;
  status.session = "s";
  status.attempts = 2;
  status.best_tns = -4.5;
  status.result_digest = 0xABCDu;
  status.detail = "resumed from ckpt-000002";
  status.postmortem = "/w/pm.json";
  status.trace = "/w/trace.json";
  sweep_serve("job_status", status);

  JobProgress progress;
  progress.job_id = 5;
  progress.phase = "train";
  progress.step = "iteration";
  progress.index = 3;
  progress.seconds = 1.25;
  progress.metrics = {{"tns", -3.5}, {"reward", 0.25}};
  sweep_serve("job_progress", progress);

  JobResult result;
  result.drained = true;
  result.iterations = 4;
  result.best_tns = -2.0;
  result.digest = 0x1234u;
  result.detail = "done";
  sweep_serve("job_result", result);

  SubmitReply reply;
  reply.job_id = 9;
  reply.reason = "queue full";
  sweep_serve("submit_reply", reply);
}

TEST(DecoderFuzz, Json) {
  JsonValue value;
  sweep("json",
        {R"({"a":[1,-2.5e3,true,false,null],"b":{"c":"x\"y\\zé\n"},)"
         R"("d":[],"e":0.125})",
         R"([{"k":"v"},[[[]]],"😀",1e308,-0,{"":{}}])"},
        {[&](std::string_view b) { return JsonValue::parse(b, value); }, {}});
}

}  // namespace
}  // namespace rlccd
