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
// baseline). Older checkpoints are rejected at load (resume falls back to
// starting fresh), which is safe: replaying from a v1 checkpoint would
// leave those fields zero in the restored history.
constexpr std::uint32_t kVersion = 2;

std::string serialize_payload(const TrainCheckpoint& ckpt) {
  std::string out;
  ipc_append_pod(out, ckpt.seed);
  ipc_append_pod(out, ckpt.workers);
  ipc_append_pod(out, ckpt.next_iter);
  ipc_append_pod(out, ckpt.baseline);
  ipc_append_pod(out, static_cast<std::uint8_t>(ckpt.baseline_init ? 1 : 0));
  ipc_append_pod(out, ckpt.stall);
  ipc_append_pod(out, ckpt.rng_state);

  ipc_append_pod(out, static_cast<std::uint64_t>(ckpt.params.size()));
  for (std::size_t i = 0; i < ckpt.params.size(); ++i) {
    ipc_append_pod(out, ckpt.param_shapes[i].first);
    ipc_append_pod(out, ckpt.param_shapes[i].second);
    ipc_append_float_vec(out, ckpt.params[i]);
  }

  ipc_append_pod(out, static_cast<std::int64_t>(ckpt.adam.t));
  ipc_append_pod(out, static_cast<std::uint64_t>(ckpt.adam.m.size()));
  for (std::size_t i = 0; i < ckpt.adam.m.size(); ++i) {
    ipc_append_float_vec(out, ckpt.adam.m[i]);
    ipc_append_float_vec(out, ckpt.adam.v[i]);
  }

  const TrainStats& s = ckpt.stats;
  ipc_append_pod(out, s.begin_tns);
  ipc_append_pod(out, s.default_tns);
  ipc_append_pod(out, static_cast<std::uint64_t>(s.default_nve));
  ipc_append_pod(out, s.best_tns);
  ipc_append_pod(out, static_cast<std::uint64_t>(s.best_selection.size()));
  for (PinId pin : s.best_selection) ipc_append_pod(out, pin.value);
  ipc_append_pod(out, static_cast<std::uint64_t>(s.history.size()));
  for (const IterationStats& it : s.history) {
    ipc_append_pod(out, it.mean_reward);
    ipc_append_pod(out, it.mean_tns);
    ipc_append_pod(out, it.iter_best_tns);
    ipc_append_pod(out, it.best_tns);
    ipc_append_pod(out, it.mean_steps);
    ipc_append_pod(out, it.mean_entropy);
    ipc_append_pod(out, it.grad_norm);
    ipc_append_pod(out, it.baseline);
  }
  ipc_append_pod(out, static_cast<std::int32_t>(s.iterations));
  ipc_append_pod(out, static_cast<std::int32_t>(s.flow_runs));
  ipc_append_pod(out, s.train_seconds);
  return out;
}

Status parse_payload(TrainCheckpoint& ckpt, std::string_view bytes) {
  std::size_t offset = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, ckpt.seed, "seed"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, ckpt.workers, "workers"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, ckpt.next_iter, "next_iter"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, ckpt.baseline, "baseline"));
  std::uint8_t baseline_init = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, baseline_init, "baseline_init"));
  ckpt.baseline_init = baseline_init != 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, ckpt.stall, "stall"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, ckpt.rng_state, "rng_state"));

  std::uint64_t n_params = 0;  // u64 rows, cols and value count at least
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_params, 24, "parameter count"));
  ckpt.params.resize(n_params);
  ckpt.param_shapes.resize(n_params);
  for (std::size_t i = 0; i < n_params; ++i) {
    RLCCD_TRY(ipc_parse_pod(bytes, offset, ckpt.param_shapes[i].first,
                            "parameter rows"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, ckpt.param_shapes[i].second,
                            "parameter cols"));
    RLCCD_TRY(ipc_parse_float_vec(bytes, offset, ckpt.params[i],
                                  "parameter values"));
  }

  std::int64_t adam_t = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, adam_t, "adam step count"));
  ckpt.adam.t = static_cast<long>(adam_t);
  std::uint64_t n_adam = 0;  // two u64 value counts at least
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_adam, 16, "adam parameter count"));
  ckpt.adam.m.resize(n_adam);
  ckpt.adam.v.resize(n_adam);
  for (std::size_t i = 0; i < n_adam; ++i) {
    RLCCD_TRY(ipc_parse_float_vec(bytes, offset, ckpt.adam.m[i], "adam m"));
    RLCCD_TRY(ipc_parse_float_vec(bytes, offset, ckpt.adam.v[i], "adam v"));
  }

  TrainStats& s = ckpt.stats;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, s.begin_tns, "begin_tns"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, s.default_tns, "default_tns"));
  std::uint64_t default_nve = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, default_nve, "default_nve"));
  s.default_nve = static_cast<std::size_t>(default_nve);
  RLCCD_TRY(ipc_parse_pod(bytes, offset, s.best_tns, "best_tns"));
  std::uint64_t n_sel = 0;  // u32 pins
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_sel, 4, "selection size"));
  s.best_selection.resize(n_sel);
  for (PinId& pin : s.best_selection) {
    RLCCD_TRY(ipc_parse_pod(bytes, offset, pin.value, "selection pin"));
  }
  std::uint64_t n_hist = 0;  // eight doubles per entry
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_hist, 64, "history size"));
  s.history.resize(n_hist);
  for (IterationStats& it : s.history) {
    RLCCD_TRY(ipc_parse_pod(bytes, offset, it.mean_reward, "history"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, it.mean_tns, "history"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, it.iter_best_tns, "history"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, it.best_tns, "history"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, it.mean_steps, "history"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, it.mean_entropy, "history"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, it.grad_norm, "history"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, it.baseline, "history"));
  }
  std::int32_t iterations = 0, flow_runs = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, iterations, "iterations"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, flow_runs, "flow_runs"));
  s.iterations = iterations;
  s.flow_runs = flow_runs;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, s.train_seconds, "train_seconds"));
  if (offset != bytes.size()) {
    return Status::corrupt("%zu trailing bytes after payload",
                           bytes.size() - offset);
  }
  return Status();
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
  const std::string payload = serialize_payload(ckpt);
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
  return parse_payload(ckpt, payload).with_context(path);
}

}  // namespace rlccd
