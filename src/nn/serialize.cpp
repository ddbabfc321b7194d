#include "nn/serialize.h"

#include <cstring>

#include "common/fault.h"
#include "common/io.h"
#include "common/ipc.h"

namespace rlccd {

namespace {

constexpr char kMagic[8] = {'R', 'L', 'C', 'C', 'D', 'N', 'N', '1'};

void append_parameters(const std::vector<Tensor>& params, std::string& out) {
  ipc_append_pod(out, static_cast<std::uint64_t>(params.size()));
  for (const Tensor& p : params) {
    ipc_append_pod(out, static_cast<std::uint64_t>(p.rows()));
    ipc_append_pod(out, static_cast<std::uint64_t>(p.cols()));
    if (p.size() > 0) {
      out.append(reinterpret_cast<const char*>(p.data()),
                 p.size() * sizeof(float));
    }
  }
}

Status parse_parameters(std::vector<Tensor>& params, std::string_view bytes,
                        std::size_t& offset) {
  std::uint64_t count = 0;  // u64 rows and cols at least
  RLCCD_TRY(ipc_parse_count(bytes, offset, count, 16, "parameter count"));
  if (count != params.size()) {
    return Status::invalid_argument(
        "parameter count %llu, expected %zu",
        static_cast<unsigned long long>(count), params.size());
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& p = params[i];
    std::uint64_t rows = 0, cols = 0;
    RLCCD_TRY(ipc_parse_pod(bytes, offset, rows, "parameter shape"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, cols, "parameter shape"));
    if (rows != p.rows() || cols != p.cols()) {
      return Status::invalid_argument(
          "parameter %zu: shape %llux%llu, expected %zux%zu", i,
          static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(cols), p.rows(), p.cols());
    }
    const std::size_t nbytes = p.size() * sizeof(float);
    if (offset + nbytes > bytes.size()) {
      return Status::corrupt("truncated in parameter %zu data (%zu of %zu bytes)",
                             i, bytes.size() - offset, nbytes);
    }
    if (nbytes > 0) {
      std::memcpy(p.data(), bytes.data() + offset, nbytes);
      offset += nbytes;
    }
  }
  return Status();
}

}  // namespace

Status save_parameters(const std::vector<Tensor>& params,
                       const std::string& path) {
  if (fault_fire("nn_save_io")) {
    return Status::io_error("injected I/O fault writing %s", path.c_str());
  }
  std::string payload;
  payload.append(kMagic, sizeof(kMagic));
  append_parameters(params, payload);
  return atomic_write_file(path, payload);
}

Status load_parameters(std::vector<Tensor>& params, const std::string& path) {
  std::string bytes;
  RLCCD_TRY(read_file(path, bytes));
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::corrupt("%s: not an RLCCDNN1 parameter file",
                           path.c_str());
  }
  std::size_t offset = sizeof(kMagic);
  return parse_parameters(params, bytes, offset).with_context(path);
}

void copy_parameter_values(const std::vector<Tensor>& src,
                           std::vector<Tensor>& dst) {
  RLCCD_EXPECTS(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    RLCCD_EXPECTS(src[i].rows() == dst[i].rows() &&
                  src[i].cols() == dst[i].cols());
    std::memcpy(dst[i].data(), src[i].data(), src[i].size() * sizeof(float));
  }
}

}  // namespace rlccd
