// Numerical-health contract: RLCCD_CHECK_FINITE aborts (like contracts.h)
// when a value that must be a real number is NaN or infinite, so a numerics
// bug fails at its source instead of poisoning three passes of downstream
// state. Applied at producer boundaries that feed decisions — STA summary
// outputs, reward normalization inputs.
//
// For paths that must *recover* from non-finite values (trainer rewards,
// policy logits, gradients) use the non-aborting helpers below and a
// recovery policy instead.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/contracts.h"

namespace rlccd {

[[nodiscard]] inline bool all_finite(std::span<const float> values) {
  // Inf and NaN have every exponent bit set. Without an early exit the loop
  // vectorizes.
  std::uint32_t bad = 0;
  for (float v : values) {
    bad |= (std::bit_cast<std::uint32_t>(v) & 0x7f800000u) == 0x7f800000u;
  }
  return bad == 0;
}

[[nodiscard]] inline bool all_finite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace rlccd

#define RLCCD_CHECK_FINITE(value)                                         \
  (std::isfinite(value)                                                   \
       ? static_cast<void>(0)                                             \
       : ::rlccd::contract_fail("Finite-value", #value, __FILE__, __LINE__))
