#include "nn/serialize.h"

#include <cstring>

#include "common/fault.h"
#include "common/io.h"
#include "common/ipc.h"

namespace rlccd {

namespace {

constexpr char kMagic[8] = {'R', 'L', 'C', 'C', 'D', 'N', 'N', '1'};

// The count and every shape are read against the live tensors, which are
// never resized: a file for another network is rejected, not half-loaded.
template <class W, class Params>
Status parameter_fields(W& w, Params& params) {
  // Each parameter: u64 rows and cols at least.
  std::size_t count = params.size();
  RLCCD_TRY(w.count(kU64, count, 16, "parameter count"));
  if (count != params.size()) {
    return Status::invalid_argument("parameter count %zu, expected %zu",
                                    count, params.size());
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& p = params[i];
    std::size_t rows = p.rows(), cols = p.cols();
    RLCCD_TRY(w.as(kU64, rows, "parameter shape"));
    RLCCD_TRY(w.as(kU64, cols, "parameter shape"));
    if (rows != p.rows() || cols != p.cols()) {
      return Status::invalid_argument(
          "parameter %zu: shape %zux%zu, expected %zux%zu", i, rows, cols,
          p.rows(), p.cols());
    }
    RLCCD_TRY(w.floats(p.data(), p.size(), "parameter values"));
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
  ByteWriter w(payload);
  (void)parameter_fields(w, params);
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
  ByteReader r(std::string_view(bytes).substr(sizeof(kMagic)));
  return parameter_fields(r, params).with_context(path);
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
