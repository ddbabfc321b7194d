#include "opt/hold_fix.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace rlccd {

namespace {
// Inserted delay buffers use the weakest drive: the largest delay per area.
constexpr int kBufferSizeIndex = 0;
}

HoldFixResult run_hold_fix(Sta& sta, Netlist& netlist,
                           const HoldFixConfig& config) {
  RLCCD_SPAN("hold_fix");
  HoldFixResult result;
  sta.update();
  const Library& lib = netlist.library();
  const LibCellId buf_lib = lib.pick(CellKind::Buf, kBufferSizeIndex);
  const LibCell& buf = lib.cell(buf_lib);
  std::unordered_set<PinId> unfixable;

  // Pads the endpoint until its hold slack clears; returns false when the
  // setup guard (or the global buffer budget) blocks further padding.
  auto pad_endpoint = [&](PinId ep) -> bool {
    while (result.buffers_inserted < config.max_buffers) {
      if (sta.endpoint_hold_slack(ep) >= config.hold_guard) return true;
      // A pad delays min and max paths alike; the setup side must be able
      // to absorb one buffer delay.
      double pad_delay = buf.arc_delay(0, buf.input_cap, 0.05);
      if (sta.endpoint_slack(ep) - pad_delay < config.setup_guard) {
        unfixable.insert(ep);
        return false;
      }
      // Splice the buffer directly in front of the endpoint pin, co-located
      // with the endpoint cell so it adds no wire delay. Copy everything out
      // of the netlist first: add_cell/add_net below may reallocate the
      // cell/pin stores and invalidate references into them.
      const Pin& p = netlist.pin(ep);
      const NetId src = p.net;
      const Cell& owner = netlist.cell(p.cell);
      const double owner_x = owner.x;
      const double owner_y = owner.y;
      RLCCD_ASSERT(src.valid());
      CellId buf_cell = netlist.add_cell(
          buf_lib, "hold_buf" + std::to_string(netlist.num_cells()));
      netlist.set_position(buf_cell, owner_x, owner_y);
      NetId n =
          netlist.add_net("hold_n" + std::to_string(netlist.num_nets()));
      netlist.set_driver(n, buf_cell);
      netlist.add_sink(src, buf_cell, 0);
      netlist.move_sink(ep, n);
      netlist.update_wire_parasitics();
      ++result.buffers_inserted;
      sta.update();
    }
    return false;
  };

  // Padding one endpoint shifts loads and arrivals elsewhere, so victims
  // are re-collected until the design is clean or no progress is possible.
  for (int round = 0; round < 8; ++round) {
    std::vector<PinId> victims;
    for (PinId ep : sta.endpoints()) {
      double hs = sta.endpoint_hold_slack(ep);
      if (hs < config.hold_guard && hs > -kUntimed && !unfixable.count(ep)) {
        victims.push_back(ep);
      }
    }
    if (victims.empty()) break;
    int before = result.buffers_inserted;
    for (PinId ep : victims) {
      if (pad_endpoint(ep)) ++result.endpoints_fixed;
    }
    if (result.buffers_inserted == before) break;  // no progress possible
  }

  result.endpoints_unfixable = unfixable.size();
  sta.update();
  static MetricsCounter& ctr =
      MetricsRegistry::global().counter("opt.hold_fix.buffers");
  ctr.add(static_cast<std::uint64_t>(result.buffers_inserted));
  return result;
}

}  // namespace rlccd
