#include "sta/path.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace rlccd {

TimingPath extract_critical_path(const Sta& sta, PinId endpoint) {
  RLCCD_EXPECTS(sta.is_endpoint(endpoint));
  const Netlist& nl = sta.netlist();
  TimingPath path;
  path.endpoint = endpoint;
  path.slack = sta.endpoint_slack(endpoint);

  std::vector<PathStep> reversed;
  PinId cur = endpoint;  // always an input pin here
  while (cur.valid()) {
    const PinTiming& t = sta.timing(cur);
    if (!t.reachable) break;
    reversed.push_back({cur, t.arrival_max, 0.0});

    // Hop the net arc to the driver pin.
    const Pin& p = nl.pin(cur);
    if (!p.net.valid()) break;
    const Net& net = nl.net(p.net);
    if (!net.driver.valid()) break;
    PinId drv = net.driver;
    const PinTiming& dt = sta.timing(drv);
    if (!dt.reachable) break;
    reversed.back().incr = t.arrival_max - dt.arrival_max;
    reversed.push_back({drv, dt.arrival_max, 0.0});

    // Stop at startpoints.
    CellId cell = nl.pin(drv).cell;
    const LibCell& lc = nl.lib_cell(cell);
    if (lc.is_sequential() || lc.is_port()) {
      path.startpoint = cell;
      break;
    }

    // Hop the cell arc: find the input whose arrival + arc delay realized
    // the output arrival.
    const Cell& c = nl.cell(cell);
    const Pin& out_pin = nl.pin(drv);
    double load = out_pin.net.valid() ? nl.net_load_cap(out_pin.net) : 0.0;
    PinId best;
    double best_gap = kUntimed;
    double best_delay = 0.0;
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      const PinTiming& in = sta.timing(c.inputs[i]);
      if (!in.reachable) continue;
      double delay = lc.arc_delay(static_cast<int>(i), load, in.slew);
      double gap = std::abs(in.arrival_max + delay - dt.arrival_max);
      if (gap < best_gap) {
        best_gap = gap;
        best = c.inputs[i];
        best_delay = delay;
      }
    }
    if (!best.valid()) break;
    reversed.back().incr = best_delay;
    cur = best;
  }

  path.steps.assign(reversed.rbegin(), reversed.rend());
  return path;
}

TimingPath extract_worst_path(const Sta& sta) {
  PinId worst;
  double worst_slack = kUntimed;
  for (PinId ep : sta.endpoints()) {
    double s = sta.endpoint_slack(ep);
    if (s < worst_slack) {
      worst_slack = s;
      worst = ep;
    }
  }
  if (!worst.valid()) return TimingPath{};
  return extract_critical_path(sta, worst);
}

std::string path_to_string(const Netlist& netlist, const TimingPath& path) {
  std::ostringstream out;
  const char* start_name = path.startpoint.valid()
                               ? netlist.cell(path.startpoint).name.c_str()
                               : "?";
  out << "path to endpoint of cell "
      << netlist.cell(netlist.pin(path.endpoint).cell).name
      << " (slack " << path.slack << " ns), launched from " << start_name
      << "\n";
  for (const PathStep& step : path.steps) {
    const Pin& p = netlist.pin(step.pin);
    const Cell& c = netlist.cell(p.cell);
    out << "  " << c.name << "/"
        << (p.dir == PinDir::Output ? "out" : "in") << p.index << "  arrival "
        << step.arrival << "  +" << step.incr << "\n";
  }
  return out.str();
}

}  // namespace rlccd
