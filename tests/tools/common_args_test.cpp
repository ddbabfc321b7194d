// The flag table's parser: a numeric value must parse in full and fit its
// entry, so a typo fails the command instead of silently reading as 0.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "tools/common_args.h"

namespace rlccd {
namespace {

// Runs the parser on `tokens` (argv[0] first) against `table`.
std::optional<int> parse(std::vector<std::string> tokens,
                         const std::vector<tools::Arg>& table,
                         std::size_t* positionals = nullptr) {
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  return tools::parse_args(static_cast<int>(argv.size()), argv.data(), table,
                           positionals);
}

// Parses one "FLAG VALUE" pair into `args`; true when the parser accepts
// it, and a rejection must be exit status 2.
bool parse(const char* flag, const char* value, tools::CommonArgs& args) {
  std::vector<tools::Arg> table;
  tools::add_common_flags(table, args);
  const std::optional<int> rc = parse({"tool", flag, value}, table);
  if (rc) {
    EXPECT_EQ(*rc, 2) << flag << " '" << value << "'";
  }
  return !rc;
}

TEST(CommonArgs, RejectsMalformedNumericValues) {
  tools::CommonArgs args;
  for (const char* bad : {"abc", "", "12x", "1.5", "-1", "99999999999999999999"}) {
    EXPECT_FALSE(parse("--flow-cache-mb", bad, args)) << "'" << bad << "'";
  }
  for (const char* bad : {"x", "3 ", " 3", "-2", "2147483648"}) {
    EXPECT_FALSE(parse("--max-worker-restarts", bad, args))
        << "'" << bad << "'";
  }
  for (const char* bad : {"soon", "1.5s", "1e999", "nan", "inf"}) {
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

TEST(FlagTable, PositionalsFillInTableOrderUnderTheSameRule) {
  std::string command;
  double scale = 0.01;
  std::uint64_t seed = 1;
  bool resume = false;
  const std::vector<tools::Arg> table = {
      {"<command>", nullptr, "what to do", &command},
      {"[scale]", nullptr, "share", &scale, tools::kScale},
      {"--seed", "N", "seed", &seed},
      {"--resume", nullptr, "resume", &resume},
  };
  std::size_t given = 0;
  EXPECT_EQ(parse({"t", "train", "--resume", "0.5", "--seed", "7"}, table,
                  &given),
            std::nullopt);
  EXPECT_EQ(command, "train");
  EXPECT_EQ(scale, 0.5);
  EXPECT_EQ(seed, 7u);
  EXPECT_TRUE(resume);
  EXPECT_EQ(given, 2u);

  EXPECT_EQ(parse({"t", "train"}, table, &given), std::nullopt);
  EXPECT_EQ(given, 1u);
  EXPECT_EQ(parse({"t"}, table), 2) << "<command> is required";
  EXPECT_EQ(parse({"t", "train", "0"}, table), 2) << "scale is in (0, 1]";
  EXPECT_EQ(parse({"t", "train", "1", "extra"}, table), 2);
  EXPECT_EQ(parse({"t", "train", "--seed"}, table), 2) << "missing value";
  EXPECT_EQ(parse({"t", "train", "--seed", "-1"}, table), 2);
  EXPECT_EQ(parse({"t", "train", "--bogus"}, table), 2);
  EXPECT_EQ(scale, 1.0) << "the accepted [scale] before the extra argument";
  EXPECT_EQ(seed, 7u);
}

}  // namespace
}  // namespace rlccd
