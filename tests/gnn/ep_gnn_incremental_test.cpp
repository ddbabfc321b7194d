// EpGnn::Encoder against the full forward: at every step of a randomized
// mask-flip sequence on generated designs, the incrementally re-encoded
// embeddings and the gradients of a loss backwarded through them must equal
// a fresh full forward's bit for bit.
#include <gtest/gtest.h>

#include <thread>

#include "helpers/ep_gnn_graph.h"

namespace rlccd {
namespace {

using testing::GeneratedGraph;
using testing::grads_of;
using testing::same_bits;

// How a step changes the mask column.
enum class Flip { kOneCell, kNone, kManyCells, kEveryCell, kEndpointCells };

void apply(Flip flip, const GeneratedGraph& g, Rng& rng,
           std::vector<char>& flags) {
  auto toggle = [&](std::size_t cell) { flags[cell] = flags[cell] ? 0 : 1; };
  switch (flip) {
    case Flip::kOneCell:
      toggle(rng.uniform_int(g.cells()));
      break;
    case Flip::kNone:
      break;
    case Flip::kManyCells:
      for (std::size_t i = 0; i < g.cells() / 8; ++i) {
        toggle(rng.uniform_int(g.cells()));
      }
      break;
    case Flip::kEveryCell:
      for (std::size_t c = 0; c < g.cells(); ++c) toggle(c);
      break;
    case Flip::kEndpointCells:
      // What a selection step does: the owner cells of a few endpoints.
      for (std::uint64_t i = 1 + rng.uniform_int(4); i > 0; --i) {
        flags[g.ep_rows[rng.uniform_int(g.ep_rows.size())]] = 1;
      }
      break;
  }
}

class EpGnnIncremental
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint64_t>> {
};

TEST_P(EpGnnIncremental, EveryStepMatchesAFullForwardBitForBit) {
  const auto [cells, seed] = GetParam();
  const GeneratedGraph g(cells, seed);
  ASSERT_GT(g.ep_rows.size(), 2u);
  Rng init(seed);
  const EpGnn gnn(EpGnnConfig{}, init);
  ASSERT_EQ(gnn.parameters().size(), 17u);
  std::vector<float> w(g.ep_rows.size() * gnn.config().embedding);
  for (float& v : w) v = static_cast<float>(init.uniform(-1.0, 1.0));
  const Tensor weights = Tensor::from_data(w, g.ep_rows.size(),
                                           gnn.config().embedding);

  EpGnn::Encoder encoder(gnn, *g.adj, *g.cones, g.ep_rows);
  std::vector<char> flags(g.cells(), 0);
  Rng rng(seed * 7919 + 1);
  // Each kind once (after the encoder's first, full step), then random.
  std::vector<Flip> script = {Flip::kNone,      Flip::kOneCell,
                              Flip::kNone,      Flip::kManyCells,
                              Flip::kEveryCell, Flip::kEndpointCells};
  while (script.size() < 24) {
    script.push_back(static_cast<Flip>(rng.uniform_int(5)));
  }

  for (std::size_t step = 0; step < script.size(); ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step << " flip "
                                      << static_cast<int>(script[step]));
    if (step > 0) apply(script[step], g, rng, flags);
    std::vector<float> embeddings;
    std::vector<std::vector<float>> grads;
    std::size_t rows = 0;
    {
      // The incremental step's graph is spent before the next encode().
      Tensor f = encoder.encode(g.with_mask(flags));
      embeddings.assign(f.data(), f.data() + f.size());
      grads = grads_of(gnn, f, weights);
      rows = encoder.rows_computed();
    }
    const Tensor full =
        gnn.forward(g.with_mask(flags), *g.adj, *g.cones, g.ep_rows);
    ASSERT_EQ(full.size(), embeddings.size());
    ASSERT_TRUE(same_bits(full.data(), embeddings.data(), full.size()))
        << "embeddings differ from the full forward";
    const std::vector<std::vector<float>> full_grads =
        grads_of(gnn, full, weights);
    for (std::size_t p = 0; p < grads.size(); ++p) {
      ASSERT_EQ(grads[p].size(), full_grads[p].size());
      ASSERT_TRUE(
          same_bits(grads[p].data(), full_grads[p].data(), grads[p].size()))
          << "gradient of parameter " << p << " differs";
    }

    const Flip flip = script[step];
    if (step == 0 || flip == Flip::kEveryCell) {
      EXPECT_EQ(rows, encoder.rows_full());
    } else if (flip == Flip::kNone) {
      EXPECT_EQ(rows, 0u);
    } else if (flip == Flip::kOneCell) {
      EXPECT_LT(rows, encoder.rows_full());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpGnnDesigns, EpGnnIncremental,
                         ::testing::Values(std::make_pair(300, 11),
                                           std::make_pair(500, 12),
                                           std::make_pair(900, 13)));

// Trainer workers each run their own policy clone's encoder over the one
// shared design graph, on their own threads.
TEST(EpGnnIncrementalThreads, EncodersOnSharedOperandsMatchSerial) {
  const GeneratedGraph g(400, 21);
  auto run = [&](std::uint64_t stream) {
    Rng init(7);
    const EpGnn gnn(EpGnnConfig{}, init);
    EpGnn::Encoder encoder(gnn, *g.adj, *g.cones, g.ep_rows);
    std::vector<char> flags(g.cells(), 0);
    Rng rng(stream);
    std::vector<float> trace;
    for (int step = 0; step < 12; ++step) {
      if (step > 0) apply(Flip::kEndpointCells, g, rng, flags);
      Tensor f = encoder.encode(g.with_mask(flags));
      ops::sum(f).backward();
      trace.insert(trace.end(), f.data(), f.data() + f.size());
    }
    return trace;
  };
  constexpr int kThreads = 4;
  std::vector<std::vector<float>> serial, threaded(kThreads);
  for (int t = 0; t < kThreads; ++t) serial.push_back(run(100 + t));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { threaded[t] = run(100 + t); });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(serial[t].size(), threaded[t].size());
    EXPECT_TRUE(same_bits(serial[t].data(), threaded[t].data(),
                          serial[t].size()))
        << "worker " << t;
  }
}

}  // namespace
}  // namespace rlccd
