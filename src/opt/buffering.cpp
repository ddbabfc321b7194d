#include "opt/buffering.h"

#include <algorithm>
#include <vector>

namespace rlccd {

namespace {
// Drive of inserted buffers (BUF ladder index).
constexpr int kBufferSizeIndex = 1;
}

BufferResult run_buffering(Sta& sta, Netlist& netlist,
                           const BufferConfig& config) {
  RLCCD_SPAN("buffering");
  BufferResult result;
  sta.update();
  const Library& lib = netlist.library();

  struct Candidate {
    NetId net;
    double score;  // more negative slack x longer wire = earlier
  };
  std::vector<Candidate> candidates;
  for (const Net& n : netlist.nets()) {
    if (!n.driver.valid() || n.sinks.empty()) continue;
    const Pin& drv = netlist.pin(n.driver);
    // Skip clock-like high-fanout nets and port-driven nets.
    if (netlist.is_port(drv.cell)) continue;
    double hpwl = netlist.net_hpwl(n.id);
    if (hpwl < config.min_hpwl && n.sinks.size() < config.min_fanout) continue;
    double s = sta.slack(n.driver);
    if (s >= 0.0 || s <= -kUntimed) continue;
    candidates.push_back({n.id, s * (1.0 + hpwl)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score < b.score;
            });

  for (const Candidate& cand : candidates) {
    if (result.buffers_inserted >= config.max_buffers) break;
    const Net& n = netlist.net(cand.net);
    if (n.sinks.size() < 2) continue;

    // Partition sinks by distance from the driver; the far half moves behind
    // the new buffer.
    const Cell& drv_cell = netlist.cell(netlist.pin(n.driver).cell);
    std::vector<PinId> sinks(n.sinks.begin(), n.sinks.end());
    std::sort(sinks.begin(), sinks.end(), [&](PinId a, PinId b) {
      return netlist.sink_distance(a) < netlist.sink_distance(b);
    });
    std::size_t split = sinks.size() / 2;
    std::vector<PinId> far(sinks.begin() + static_cast<long>(split),
                           sinks.end());
    if (far.empty()) continue;

    double cx = 0.0, cy = 0.0;
    for (PinId s : far) {
      const Cell& c = netlist.cell(netlist.pin(s).cell);
      cx += c.x;
      cy += c.y;
    }
    cx /= static_cast<double>(far.size());
    cy /= static_cast<double>(far.size());
    // Place the buffer between the driver and the far centroid.
    double bx = 0.5 * (drv_cell.x + cx);
    double by = 0.5 * (drv_cell.y + cy);

    LibCellId buf_lib = lib.pick(CellKind::Buf, kBufferSizeIndex);
    CellId buf = netlist.add_cell(
        buf_lib, "opt_buf" + std::to_string(netlist.num_cells()));
    netlist.set_position(buf, bx, by);
    NetId new_net =
        netlist.add_net("opt_bufn" + std::to_string(netlist.num_nets()));
    netlist.set_driver(new_net, buf);
    netlist.add_sink(cand.net, buf, 0);
    for (PinId s : far) netlist.move_sink(s, new_net);

    ++result.buffers_inserted;
  }

  if (result.buffers_inserted > 0) {
    netlist.update_wire_parasitics();
  }
  sta.update();
  static MetricsCounter& ctr =
      MetricsRegistry::global().counter("opt.buffering.inserted");
  ctr.add(static_cast<std::uint64_t>(result.buffers_inserted));
  return result;
}

}  // namespace rlccd
