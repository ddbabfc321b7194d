#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/io.h"
#include "helpers/temp_path.h"
#include "nn/modules.h"

namespace rlccd {
namespace {

using testing::temp_path;

TEST(Serialize, RoundTripPreservesValues) {
  Rng rng(7);
  Linear lin(4, 3, rng);
  std::vector<Tensor> params = lin.parameters();
  std::string path = temp_path("params.bin");
  ASSERT_TRUE(save_parameters(params, path).ok());

  Linear fresh(4, 3, rng);  // different random init
  std::vector<Tensor> loaded = fresh.parameters();
  ASSERT_TRUE(load_parameters(loaded, path).ok());
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (std::size_t i = 0; i < params[p].size(); ++i) {
      EXPECT_FLOAT_EQ(loaded[p].data()[i], params[p].data()[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsShapeMismatchWithDiagnostic) {
  Rng rng(8);
  Linear small(2, 2, rng);
  Linear big(3, 3, rng);
  std::string path = temp_path("mismatch.bin");
  std::vector<Tensor> sp = small.parameters();
  ASSERT_TRUE(save_parameters(sp, path).ok());
  std::vector<Tensor> bp = big.parameters();
  Status s = load_parameters(bp, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("shape"), std::string::npos) << s.message();
  std::remove(path.c_str());
}

// Nothing is loaded unless everything is: a file whose last tensor has
// another shape, is cut short or is followed by more bytes fails, and
// every parameter keeps its bits, the earlier tensors' too.
TEST(Serialize, RejectedFileLeavesEveryParameterBitIdentical) {
  const auto network = [](float scale) {
    return std::vector<Tensor>{
        Tensor::from_data({1.0f * scale, 2.0f * scale, 3.0f * scale,
                           4.0f * scale},
                          2, 2),
        Tensor::from_data({5.0f * scale}, 1, 1),
        Tensor::from_data({6.0f * scale, 7.0f * scale}, 1, 2)};
  };
  const std::string path = temp_path("all_or_nothing.bin");
  std::string saved;
  ASSERT_TRUE(save_parameters(network(10.0f), path).ok());
  ASSERT_TRUE(read_file(path, saved).ok());
  std::vector<Tensor> reshaped = network(10.0f);
  reshaped[2] = Tensor::from_data({60.0f, 70.0f}, 2, 1);
  std::string other_shape;
  ASSERT_TRUE(save_parameters(reshaped, path).ok());
  ASSERT_TRUE(read_file(path, other_shape).ok());

  for (const std::string& bytes :
       {other_shape, saved.substr(0, saved.size() - 1),
        saved + std::string(13, '\x5a')}) {
    ASSERT_TRUE(atomic_write_file(path, bytes).ok());
    std::vector<Tensor> live = network(1.0f);
    EXPECT_FALSE(load_parameters(live, path).ok()) << bytes.size() << " B";
    const std::vector<Tensor> before = network(1.0f);
    for (std::size_t p = 0; p < live.size(); ++p) {
      EXPECT_EQ(std::memcmp(live[p].data(), before[p].data(),
                            live[p].size() * sizeof(float)),
                0)
          << "tensor " << p << " changed by a rejected " << bytes.size()
          << " B file";
    }
  }
  ASSERT_TRUE(atomic_write_file(path, saved).ok());
  std::vector<Tensor> live = network(1.0f);
  ASSERT_TRUE(load_parameters(live, path).ok());
  EXPECT_EQ(live[0].data()[0], 10.0f);
  EXPECT_EQ(live[2].data()[1], 70.0f);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsWrongMagic) {
  std::string path = temp_path("junk.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("not a parameter file", f);
  fclose(f);
  Rng rng(9);
  Linear lin(2, 2, rng);
  std::vector<Tensor> params = lin.parameters();
  Status s = load_parameters(params, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileFails) {
  Rng rng(10);
  Linear lin(2, 2, rng);
  std::vector<Tensor> params = lin.parameters();
  Status load = load_parameters(params, "/nonexistent/dir/params.bin");
  EXPECT_FALSE(load.ok());
  EXPECT_EQ(load.code(), StatusCode::kIoError);
  Status save = save_parameters(params, "/nonexistent/dir/params.bin");
  EXPECT_FALSE(save.ok());
  EXPECT_EQ(save.code(), StatusCode::kIoError);
}

TEST(Serialize, InjectedWriteFaultReturnsIoError) {
  Rng rng(12);
  Linear lin(2, 2, rng);
  std::vector<Tensor> params = lin.parameters();
  std::string path = temp_path("fault_params.bin");
  FaultInjector::global().reset();
  FaultInjector::global().arm({"nn_save_io", 1, 1, 0.0});
  Status s = save_parameters(params, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // Fault window exhausted: the retry succeeds.
  EXPECT_TRUE(save_parameters(params, path).ok());
  FaultInjector::global().reset();
  std::remove(path.c_str());
}

TEST(Serialize, CopyParameterValues) {
  Rng rng(11);
  Linear a(3, 3, rng);
  Linear b(3, 3, rng);
  std::vector<Tensor> src = a.parameters();
  std::vector<Tensor> dst = b.parameters();
  copy_parameter_values(src, dst);
  for (std::size_t p = 0; p < src.size(); ++p) {
    for (std::size_t i = 0; i < src[p].size(); ++i) {
      EXPECT_FLOAT_EQ(dst[p].data()[i], src[p].data()[i]);
    }
  }
  // Storage must stay independent.
  dst[0].data()[0] += 1.0f;
  EXPECT_NE(dst[0].data()[0], src[0].data()[0]);
}

}  // namespace
}  // namespace rlccd
