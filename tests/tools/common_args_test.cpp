// Shared CLI flags: a numeric value must parse in full and fit its
// flag, so a typo fails the command instead of silently reading as 0.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/common_args.h"

namespace rlccd {
namespace {

// Parses one "FLAG VALUE" pair into `args`; returns the parser's `ok`.
bool parse(const char* flag, const char* value, tools::CommonArgs& args) {
  std::vector<std::string> tokens = {"tool", flag, value};
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  int i = 1;
  bool ok = true;
  EXPECT_TRUE(tools::parse_common_flag(static_cast<int>(argv.size()),
                                       argv.data(), i, args, ok));
  EXPECT_EQ(i, 2) << "the value token is consumed either way";
  return ok;
}

TEST(CommonArgs, RejectsMalformedNumericValues) {
  tools::CommonArgs args;
  for (const char* bad : {"abc", "", "12x", "1.5", "-1", "99999999999999999999"}) {
    EXPECT_FALSE(parse("--flow-cache-mb", bad, args)) << "'" << bad << "'";
  }
  for (const char* bad : {"x", "3 ", "-2", "2147483648"}) {
    EXPECT_FALSE(parse("--max-worker-restarts", bad, args))
        << "'" << bad << "'";
  }
  for (const char* bad : {"soon", "1.5s", "1e999", "nan"}) {
    EXPECT_FALSE(parse("--rollout-deadline", bad, args)) << "'" << bad << "'";
  }
  // A rejected value leaves the field at its default.
  EXPECT_EQ(args.flow_cache_mb, -1);
  EXPECT_EQ(args.max_worker_restarts, -1);
  EXPECT_EQ(args.rollout_deadline_sec, 0.0);

  EXPECT_TRUE(parse("--flow-cache-mb", "0", args));
  EXPECT_EQ(args.flow_cache_mb, 0);
  EXPECT_TRUE(parse("--flow-cache-mb", "17592186044415", args));
  EXPECT_EQ(args.flow_cache_mb, 17592186044415L);
  EXPECT_TRUE(parse("--max-worker-restarts", "3", args));
  EXPECT_EQ(args.max_worker_restarts, 3);
  EXPECT_TRUE(parse("--rollout-deadline", "-1", args));  // <= 0 disables
  EXPECT_EQ(args.rollout_deadline_sec, -1.0);
  EXPECT_TRUE(parse("--rollout-deadline", "2.5", args));
  EXPECT_EQ(args.rollout_deadline_sec, 2.5);
}

}  // namespace
}  // namespace rlccd
