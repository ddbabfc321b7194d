#include "core/rlccd.h"

#include <gtest/gtest.h>

#include "helpers/temp_path.h"

namespace rlccd {
namespace {

Design small_design(std::uint64_t seed = 121) {
  GeneratorConfig cfg;
  cfg.target_cells = 400;
  cfg.seed = seed;
  cfg.clock_tightness = 0.72;
  return generate_design(cfg);
}

RlCcdConfig fast_config(const Design& d) {
  RlCcdConfig cfg = RlCcdConfig::for_design(d);
  cfg.train.workers = 2;
  cfg.train.max_iterations = 3;
  cfg.train.min_iterations = 1;
  return cfg;
}

TEST(RlCcd, EndToEndRunProducesConsistentResult) {
  Design d = small_design();
  RlCcd agent(&d, fast_config(d));
  RlCcdResult r = agent.run();

  EXPECT_LT(r.train.begin_tns, 0.0);
  EXPECT_GE(r.rl_flow.final_summary.tns, r.train.best_tns - 1e-9)
      << "final flow with best selection must reproduce the best reward";
  EXPECT_GE(r.rl_flow.final_summary.tns, r.default_flow.final_summary.tns - 1e-9);
  EXPECT_GT(r.train_seconds, 0.0);
  EXPECT_GT(r.runtime_factor, 1.0);
}

TEST(RlCcd, GainMetricsMatchFlows) {
  Design d = small_design(123);
  RlCcd agent(&d, fast_config(d));
  RlCcdResult r = agent.run();
  double expect_gain =
      100.0 * (r.rl_flow.final_summary.tns - r.default_flow.final_summary.tns) /
      std::abs(r.default_flow.final_summary.tns);
  EXPECT_NEAR(r.tns_gain_pct(), expect_gain, 1e-9);
  EXPECT_GE(r.tns_gain_pct(), -1e-9);
}

TEST(RlCcd, TransferLearningLoadsPretrainedGnn) {
  Design d = small_design(125);
  RlCcdConfig cfg = fast_config(d);
  RlCcd teacher(&d, cfg);
  std::string path = testing::temp_path("epgnn.bin");
  ASSERT_TRUE(teacher.save_gnn(path).ok());

  RlCcdConfig transfer_cfg = cfg;
  transfer_cfg.policy_seed = 777;  // fresh encoder/decoder
  RlCcd student(&d, transfer_cfg);
  ASSERT_TRUE(student.policy().load_gnn(path).ok());

  std::vector<Tensor> a = teacher.policy().gnn_parameters();
  std::vector<Tensor> b = student.policy().gnn_parameters();
  for (std::size_t p = 0; p < a.size(); ++p) {
    for (std::size_t i = 0; i < a[p].size(); ++i) {
      ASSERT_FLOAT_EQ(a[p].data()[i], b[p].data()[i]);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlccd
