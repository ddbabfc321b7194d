#include "rl/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/fault.h"
#include "common/io.h"
#include "common/ipc.h"

namespace rlccd {

namespace {

constexpr char kMagic[10] = {'R', 'L', 'C', 'C', 'D', 'C', 'K', 'P', 'T', '1'};
// v2 added the IterationStats provenance fields (mean_entropy, grad_norm,
// baseline); v3 dropped TrainStats::train_seconds, which a checkpoint only
// ever stored as 0. Older checkpoints are rejected at load (resume falls
// back to starting fresh), which is safe: replaying from a v1 checkpoint
// would leave the provenance fields zero in the restored history.
constexpr std::uint32_t kVersion = 3;

template <class W, class Checkpoint>
Status payload_fields(W& w, Checkpoint& ckpt) {
  RLCCD_TRY(w.pod(ckpt.seed, "seed"));
  RLCCD_TRY(w.pod(ckpt.workers, "workers"));
  RLCCD_TRY(w.pod(ckpt.next_iter, "next_iter"));
  RLCCD_TRY(w.pod(ckpt.baseline, "baseline"));
  RLCCD_TRY(w.as(kU8, ckpt.baseline_init, "baseline_init"));
  RLCCD_TRY(w.pod(ckpt.stall, "stall"));
  RLCCD_TRY(w.pod(ckpt.rng_state, "rng_state"));

  // Each parameter: u64 rows, cols and value count at least.
  std::size_t n_params = ckpt.params.size();
  RLCCD_TRY(w.count(kU64, n_params, 24, "parameter count", ckpt.params,
                    ckpt.param_shapes));
  for (std::size_t i = 0; i < n_params; ++i) {
    RLCCD_TRY(w.pod(ckpt.param_shapes[i].first, "parameter rows"));
    RLCCD_TRY(w.pod(ckpt.param_shapes[i].second, "parameter cols"));
    RLCCD_TRY(w.floats(ckpt.params[i], "parameter values"));
  }

  RLCCD_TRY(w.as(kI64, ckpt.adam.t, "adam step count"));
  // Each parameter's m and v: two u64 value counts at least.
  std::size_t n_adam = ckpt.adam.m.size();
  RLCCD_TRY(w.count(kU64, n_adam, 16, "adam parameter count", ckpt.adam.m,
                    ckpt.adam.v));
  for (std::size_t i = 0; i < n_adam; ++i) {
    RLCCD_TRY(w.floats(ckpt.adam.m[i], "adam m"));
    RLCCD_TRY(w.floats(ckpt.adam.v[i], "adam v"));
  }

  auto& s = ckpt.stats;
  RLCCD_TRY(w.pod(s.begin_tns, "begin_tns"));
  RLCCD_TRY(w.pod(s.default_tns, "default_tns"));
  RLCCD_TRY(w.as(kU64, s.default_nve, "default_nve"));
  RLCCD_TRY(w.pod(s.best_tns, "best_tns"));
  RLCCD_TRY(w.list(kU64, s.best_selection, 4, "selection size", [&](auto& p) {
    return w.pod(p.value, "selection pin");
  }));
  // Eight doubles per entry.
  RLCCD_TRY(w.list(kU64, s.history, 64, "history size", [&](auto& it) {
    RLCCD_TRY(w.pod(it.mean_reward, "history"));
    RLCCD_TRY(w.pod(it.mean_tns, "history"));
    RLCCD_TRY(w.pod(it.iter_best_tns, "history"));
    RLCCD_TRY(w.pod(it.best_tns, "history"));
    RLCCD_TRY(w.pod(it.mean_steps, "history"));
    RLCCD_TRY(w.pod(it.mean_entropy, "history"));
    RLCCD_TRY(w.pod(it.grad_norm, "history"));
    return w.pod(it.baseline, "history");
  }));
  RLCCD_TRY(w.as(kI32, s.iterations, "iterations"));
  RLCCD_TRY(w.as(kI32, s.flow_runs, "flow_runs"));
  return w.finish();
}

}  // namespace

std::string checkpoint_path(const std::string& dir, int iterations) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%06d.rlccd", iterations);
  return dir + "/" + name;
}

Status list_checkpoints(const std::string& dir,
                        std::vector<std::string>& paths_out) {
  paths_out.clear();
  std::error_code ec;
  std::vector<std::pair<int, std::string>> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    int iter = -1;
    if (std::sscanf(name.c_str(), "ckpt-%d.rlccd", &iter) == 1 &&
        name.size() == std::strlen("ckpt-000000.rlccd")) {
      found.emplace_back(iter, entry.path().string());
    }
  }
  if (ec) {
    // A directory that does not exist yet simply has no checkpoints.
    if (ec == std::errc::no_such_file_or_directory) {
      return Status::not_found("checkpoint directory %s does not exist",
                               dir.c_str());
    }
    return Status::io_error("cannot list %s: %s", dir.c_str(),
                            ec.message().c_str());
  }
  if (found.empty()) {
    return Status::not_found("no ckpt-*.rlccd files in %s", dir.c_str());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (auto& [iter, path] : found) paths_out.push_back(std::move(path));
  return Status();
}

Status newest_checkpoint(const std::string& dir, std::string& path_out,
                         int* iterations_out) {
  std::vector<std::string> paths;
  RLCCD_TRY(list_checkpoints(dir, paths));
  path_out = paths.front();
  if (iterations_out != nullptr) {
    int iter = -1;
    const std::string name =
        std::filesystem::path(path_out).filename().string();
    std::sscanf(name.c_str(), "ckpt-%d.rlccd", &iter);
    *iterations_out = iter;
  }
  return Status();
}

Status save_checkpoint(const TrainCheckpoint& ckpt, const std::string& path) {
  if (fault_fire("ckpt_write_io")) {
    return Status::io_error("injected I/O fault writing %s", path.c_str());
  }
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
    if (ec) {
      return Status::io_error("cannot create checkpoint directory %s: %s",
                              fs_path.parent_path().string().c_str(),
                              ec.message().c_str());
    }
  }
  std::string payload;
  ByteWriter w(payload);
  (void)payload_fields(w, ckpt);
  std::string file;
  file.reserve(payload.size() + 32);
  file.append(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  ipc_append_pod(file, version);
  ipc_append_pod(file, static_cast<std::uint64_t>(payload.size()));
  ipc_append_pod(file, crc32(payload));
  file.append(payload);
  return atomic_write_file(path, file);
}

Status load_checkpoint(TrainCheckpoint& ckpt, const std::string& path) {
  if (fault_fire("ckpt_read_io")) {
    return Status::io_error("injected I/O fault reading %s", path.c_str());
  }
  std::string bytes;
  RLCCD_TRY(read_file(path, bytes));
  std::size_t offset = 0;
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::corrupt("%s: not an RLCCDCKPT1 checkpoint", path.c_str());
  }
  offset = sizeof(kMagic);
  std::uint32_t version = 0;
  RLCCD_TRY(
      ipc_parse_pod(bytes, offset, version, "version").with_context(path));
  if (version != kVersion) {
    return Status::corrupt("%s: unsupported checkpoint version %u",
                           path.c_str(), version);
  }
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, payload_size, "payload size")
                .with_context(path));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, crc, "crc").with_context(path));
  if (offset + payload_size != bytes.size()) {
    return Status::corrupt(
        "%s: payload size %llu does not match file (%zu bytes after header)",
        path.c_str(), static_cast<unsigned long long>(payload_size),
        bytes.size() - offset);
  }
  const std::string_view payload = std::string_view(bytes).substr(offset);
  const std::uint32_t actual = crc32(payload);
  if (actual != crc) {
    return Status::corrupt("%s: CRC mismatch (stored %08x, computed %08x)",
                           path.c_str(), crc, actual);
  }
  ByteReader r(payload);
  return payload_fields(r, ckpt).with_context(path);
}

}  // namespace rlccd
