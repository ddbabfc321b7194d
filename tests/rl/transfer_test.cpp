// Transfer-learning workflow (paper Sec. IV-B) at unit-test scale: train on
// a donor design, reuse the EP-GNN on a different design, and check the
// mechanics (weights transferred, training still valid and deterministic).
#include <gtest/gtest.h>

#include <cstdio>

#include "core/rlccd.h"
#include "helpers/temp_path.h"

namespace rlccd {
namespace {

Design make_design(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.target_cells = 400;
  cfg.seed = seed;
  cfg.clock_tightness = 0.75;
  return generate_design(cfg);
}

RlCcdConfig tiny_config(const Design& d) {
  RlCcdConfig cfg = RlCcdConfig::for_design(d);
  cfg.train.workers = 2;
  cfg.train.max_iterations = 2;
  cfg.train.min_iterations = 1;
  return cfg;
}

TEST(Transfer, DonorToStudentWorkflow) {
  std::string path = testing::temp_path("transfer_gnn.bin");

  // Donor training mutates the EP-GNN away from its initialization.
  Design donor = make_design(171);
  RlCcd teacher(&donor, tiny_config(donor));
  std::vector<float> init_sample;
  {
    Tensor w0 = teacher.policy().gnn_parameters()[0];
    init_sample.assign(w0.data(), w0.data() + w0.size());
  }
  teacher.run();
  ASSERT_TRUE(teacher.save_gnn(path).ok());
  {
    Tensor w0 = teacher.policy().gnn_parameters()[0];
    bool moved = false;
    for (std::size_t i = 0; i < w0.size(); ++i) {
      if (w0.data()[i] != init_sample[i]) moved = true;
    }
    EXPECT_TRUE(moved) << "training must update EP-GNN weights";
  }

  // Student on a different design starts from the donor's EP-GNN.
  Design student_design = make_design(173);
  RlCcd student(&student_design, tiny_config(student_design));
  ASSERT_TRUE(student.policy().load_gnn(path).ok());
  {
    std::vector<Tensor> a = teacher.policy().gnn_parameters();
    std::vector<Tensor> b = student.policy().gnn_parameters();
    for (std::size_t p = 0; p < a.size(); ++p) {
      for (std::size_t i = 0; i < a[p].size(); ++i) {
        ASSERT_FLOAT_EQ(b[p].data()[i], a[p].data()[i]);
      }
    }
  }
  RlCcdResult r = student.run();
  EXPECT_GE(r.rl_flow.final_summary.tns, r.default_flow.final_summary.tns - 1e-9);
  std::remove(path.c_str());
}

TEST(Transfer, TransferredTrainingIsDeterministic) {
  std::string path = testing::temp_path("det_gnn.bin");
  Design donor = make_design(175);
  RlCcd teacher(&donor, tiny_config(donor));
  teacher.run();
  ASSERT_TRUE(teacher.save_gnn(path).ok());

  auto run_student = [&]() {
    Design d = make_design(177);
    RlCcd agent(&d, tiny_config(d));
    EXPECT_TRUE(agent.policy().load_gnn(path).ok());
    return agent.run();
  };
  RlCcdResult a = run_student();
  RlCcdResult b = run_student();
  EXPECT_DOUBLE_EQ(a.rl_flow.final_summary.tns, b.rl_flow.final_summary.tns);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlccd
