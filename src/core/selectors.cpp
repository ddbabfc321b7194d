#include "core/selectors.h"

#include <algorithm>

namespace rlccd {

std::vector<PinId> select_worst_k(const Sta& sta, std::size_t k) {
  std::vector<PinId> vio = sta.endpoint_violations();
  std::sort(vio.begin(), vio.end(), [&](PinId a, PinId b) {
    return sta.endpoint_slack(a) < sta.endpoint_slack(b);
  });
  if (vio.size() > k) vio.resize(k);
  return vio;
}

std::vector<PinId> select_random_k(const Sta& sta, std::size_t k, Rng& rng) {
  std::vector<PinId> vio = sta.endpoint_violations();
  rng.shuffle(vio);
  if (vio.size() > k) vio.resize(k);
  std::sort(vio.begin(), vio.end());
  return vio;
}

std::vector<PinId> select_all_violating(const Sta& sta) {
  return sta.endpoint_violations();
}

}  // namespace rlccd
