#include "gnn/features.h"

#include <algorithm>
#include <cmath>

namespace rlccd {

namespace {

// Capacitance normalization scale (fF) — a heavily loaded net in this
// library is a few tens of fF.
constexpr double kCapScale = 30.0;
// Power normalization scale (mW per cell).
constexpr double kPowerScale = 0.01;

float norm_clamp(double v, double scale) {
  return static_cast<float>(std::clamp(v / scale, -4.0, 4.0));
}
}  // namespace

Tensor build_node_features(const FeatureContext& ctx) {
  RLCCD_EXPECTS(ctx.netlist != nullptr && ctx.sta != nullptr &&
                ctx.activity != nullptr);
  const Netlist& nl = *ctx.netlist;
  const Sta& sta = *ctx.sta;
  const double period = ctx.clock_period;
  const double slew_scale = 0.2 * period;

  Tensor x = Tensor::zeros(nl.num_cells(), kNumNodeFeatures);
  float* data = x.data();
  for (const Cell& c : nl.cells()) {
    float* row = data + c.id.index() * kNumNodeFeatures;
    const LibCell& lc = nl.lib_cell(c.id);

    row[1] = static_cast<float>(c.x / std::max(1.0, ctx.die.width));
    row[2] = static_cast<float>(c.y / std::max(1.0, ctx.die.height));

    NetId out_net;
    if (c.output.valid()) out_net = nl.pin(c.output).net;
    if (out_net.valid()) {
      row[3] = norm_clamp(nl.net(out_net).wire_cap, kCapScale);
      row[4] = norm_clamp(nl.net_load_cap(out_net), kCapScale);
    }
    row[5] = norm_clamp(lc.input_cap, kCapScale);

    CellPower p = compute_cell_power(nl, *ctx.activity, c.id);
    row[6] = norm_clamp(p.internal, kPowerScale);
    row[7] = norm_clamp(p.leakage, kPowerScale);
    row[8] = norm_clamp(p.net_switching, kPowerScale);
    row[9] = static_cast<float>(ctx.activity->toggle(out_net));

    double slack = sta.cell_worst_slack(c.id);
    if (slack >= kUntimed) slack = period;  // untimed: comfortably met
    row[10] = norm_clamp(slack, period);

    if (c.output.valid()) {
      row[11] = norm_clamp(sta.timing(c.output).slew, slew_scale);
    }
    double worst_in_slew = 0.0;
    for (PinId in : c.inputs) {
      worst_in_slew = std::max(worst_in_slew, sta.timing(in).slew);
    }
    row[12] = norm_clamp(worst_in_slew, slew_scale);
  }
  return x;
}

void set_masked_column(Tensor& features, const std::vector<char>& cell_flag) {
  RLCCD_EXPECTS(features.cols() == kNumNodeFeatures);
  RLCCD_EXPECTS(cell_flag.size() == features.rows());
  float* data = features.data();
  for (std::size_t i = 0; i < cell_flag.size(); ++i) {
    data[i * kNumNodeFeatures + kMaskedFeature] = cell_flag[i] ? 1.0f : 0.0f;
  }
}

}  // namespace rlccd
