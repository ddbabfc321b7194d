// Parameter (de)serialization: a simple self-describing binary format
// ("RLCCDNN1" magic, then count and shape-prefixed float blobs, written
// with the common/ipc.h byte codec). Used for transfer learning — a
// pre-trained EP-GNN is saved on one design and loaded on an unseen one
// (paper Sec. IV-B).
//
// Failures return a Status with an actionable message (which tensor, which
// shape, how the file is truncated) instead of a bare bool; saves are
// crash-safe (temp file + fsync + rename), so an interrupted save never
// leaves a truncated RLCCDNN1 file behind.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace rlccd {

// Writes parameter values atomically. Fault point "nn_save_io" injects an
// I/O failure before the write reaches the destination path.
Status save_parameters(const std::vector<Tensor>& params,
                       const std::string& path);

// Loads into existing tensors; count and shapes must match, and the file
// must end at the last value. On any failure every tensor keeps its values.
Status load_parameters(std::vector<Tensor>& params, const std::string& path);

// In-memory copy helpers (parallel training: clone <-> master).
void copy_parameter_values(const std::vector<Tensor>& src,
                           std::vector<Tensor>& dst);

}  // namespace rlccd
