// Supervised-child primitive, child side: the heartbeat beats once at start,
// stops as soon as it is destroyed (not at the end of its interval), and
// runs its telemetry hook once more as the final flush.
#include "common/child.h"

#include <gtest/gtest.h>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include <chrono>
#include <optional>
#include <thread>

namespace rlccd {
namespace {

#ifndef _WIN32

TEST(Heartbeat, StopsAtOnceAndFlushesAfterTheLastBeat) {
  Pipe pipe;
  ASSERT_TRUE(pipe_create(pipe).ok());
  ASSERT_EQ(::fcntl(pipe.read_fd, F_SETFL, O_NONBLOCK), 0);
  ChildPipe out(pipe.write_fd);

  int hook_runs = 0;
  std::optional<Heartbeat> beat;
  beat.emplace(out, /*interval_sec=*/5.0, [&] { ++hook_runs; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  beat.reset();
  const double destroy_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(destroy_sec, 1.0) << "the beat thread slept out its interval";
  EXPECT_EQ(hook_runs, 2) << "the start beat and the final flush";

  FrameDecoder decoder;
  bool eof = false;
  ASSERT_TRUE(read_available(pipe.read_fd, decoder, eof).ok());
  Frame frame;
  int heartbeats = 0;
  int others = 0;
  while (decoder.next(frame)) {
    if (frame.type == static_cast<std::uint8_t>(FrameType::kHeartbeat)) {
      ++heartbeats;
    } else {
      ++others;
    }
  }
  EXPECT_EQ(heartbeats, 1);
  EXPECT_EQ(others, 0);
  ::close(pipe.read_fd);
  ::close(pipe.write_fd);
}

#endif  // !_WIN32

}  // namespace
}  // namespace rlccd
