// Every tool's command line, run as the built binary: --help lists exactly
// the tool's flag table, and a bad argument (an unknown flag, a missing
// value, a malformed or out-of-range number, an unknown block) exits 2 with
// one stderr line naming it before the tool does any work: nothing on
// stdout, and nothing (no design, socket, root directory or artifact)
// written to the working directory.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "helpers/temp_path.h"

namespace rlccd {
namespace {

struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs `binary args...` in a fresh, empty working directory, which must
// still be empty when the tool exits.
Outcome run(const char* binary, const std::vector<std::string>& args) {
  const std::string cwd = testing::temp_path("cli_cwd");
  const std::string out = testing::temp_path("cli_stdout");
  const std::string err = testing::temp_path("cli_stderr");
  testing::remove_tree(cwd);
  std::filesystem::create_directories(cwd);
  std::string cmd = "cd '" + cwd + "' && '" + binary + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += " >'" + out + "' 2>'" + err + "'";
  const int status = std::system(cmd.c_str());
  Outcome o;
  o.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  o.out = slurp(out);
  o.err = slurp(err);
  EXPECT_TRUE(std::filesystem::is_empty(cwd))
      << binary << " wrote into its working directory";
  testing::remove_tree(cwd);
  std::remove(out.c_str());
  std::remove(err.c_str());
  return o;
}

struct Tool {
  const char* binary;
  // Every entry of the tool's table: positionals, then flags.
  std::vector<std::string> table;
  // Command lines that must exit 2, each with the text its one stderr line
  // must name.
  std::vector<std::pair<std::vector<std::string>, std::string>> bad;
};

const std::vector<std::string> kCommonFlags = {
    "--metrics-json",   "--metrics-csv",     "--metrics-prom",
    "--trace-json",     "--audit-jsonl",     "--progress",
    "--checkpoint-dir", "--resume",          "--rollout-deadline",
    "--isolate-workers", "--max-worker-restarts", "--flow-cache-mb"};

std::vector<std::string> with_common(std::vector<std::string> own) {
  own.insert(own.end(), kCommonFlags.begin(), kCommonFlags.end());
  return own;
}

std::vector<Tool> tools() {
  return {
      {RLCCD_CLI_BIN,
       with_common({"<command>", "<block|cells>", "--scale", "--seed",
                    "--iters", "--workers", "--rho", "--out", "--gnn-in",
                    "--gnn-out"}),
       {{{"train", "block11", "--workers", "0"}, "--workers"},
        {{"train", "block11", "--scale", "0"}, "--scale"},
        {{"train", "block11", "--workers", "abc"}, "--workers"},
        {{"train", "block11", "--iters", "12x"}, "--iters"},
        {{"train", "block11", "--scale", ""}, "--scale"},
        {{"train", "block11", "--rho", "nan"}, "--rho"},
        {{"train", "block11", "--rho", "1.5"}, "--rho"},
        {{"train", "block11", "--seed", "-1"}, "--seed"},
        {{"train", "block11", "--workers"}, "--workers"},
        {{"train", "block11", "--bogus-flag"}, "--bogus-flag"},
        {{"train", "blok11"}, "blok11"},
        {{"generate", "15"}, "<block|cells>"},
        {{"trian", "block11"}, "trian"},
        {{"train"}, "<block|cells>"}}},
      {SMOKE_RL_BIN,
       with_common({"[block]", "[scale]", "[iters]"}),
       {{{"blok11", "0.01", "2"}, "blok11"},
        {{"block11", "0,01", "2"}, "[scale]"},
        {{"block11", "abc"}, "[scale]"},
        {{"block11", "0.01", "12x"}, "[iters]"},
        {{"block11", ""}, "[scale]"},
        {{"block11", "nan"}, "[scale]"},
        {{"block11", "2"}, "[scale]"},
        {{"block11", "0.01", "2", "3"}, "'3'"},
        {{"--flow-cache-mb", "-1"}, "--flow-cache-mb"},
        {{"--max-worker-restarts"}, "--max-worker-restarts"},
        {{"--bogus-flag"}, "--bogus-flag"}}},
      {SMOKE_FLOW_BIN,
       {"[block]", "[scale]", "[trials]", "--metrics-json", "--metrics-csv",
        "--trace-json", "--progress"},
       {{{"block11", "0.01", "--bogus-flag"}, "--bogus-flag"},
        {{"block11", "0.01", "--audit-jsonl", "a.jsonl"}, "--audit-jsonl"},
        {{"blok11"}, "blok11"},
        {{"block11", "abc"}, "[scale]"},
        {{"block11", "0.01", "12x"}, "[trials]"},
        {{"block11", ""}, "[scale]"},
        {{"block11", "nan"}, "[scale]"},
        {{"block11", "0"}, "[scale]"},
        {{"--metrics-json"}, "--metrics-json"}}},
      {RLCCD_SERVE_BIN,
       {"--socket", "--root", "--workers", "--queue-depth", "--session-queue",
        "--session-inflight", "--retries", "--job-deadline", "--hb-timeout",
        "--drain-timeout", "--backoff-base", "--stats-interval",
        "--metrics-json", "--metrics-prom"},
       {{{"--socket", "s", "--root", "r", "--workers", "abc"}, "--workers"},
        {{"--socket", "s", "--root", "r", "--workers", "0"}, "--workers"},
        {{"--socket", "s", "--root", "r", "--retries", "12x"}, "--retries"},
        {{"--socket", "s", "--root", "r", "--hb-timeout", ""},
         "--hb-timeout"},
        {{"--socket", "s", "--root", "r", "--drain-timeout", "nan"},
         "--drain-timeout"},
        {{"--socket", "s", "--root", "r", "--queue-depth", "-1"},
         "--queue-depth"},
        {{"--socket", "s", "--root", "r", "--queue-depth"}, "--queue-depth"},
        {{"--socket", "s", "--root", "r", "--bogus-flag"}, "--bogus-flag"},
        {{"--socket", "s"}, "--root"}}},
      {RLCCD_CLIENT_BIN,
       {"<command>", "[JOB_ID]", "--socket", "--session", "--kind", "--block",
        "--scale", "--iters", "--workers", "--seed", "--priority",
        "--deadline", "--noop-sec", "--wait", "--timeout", "--count",
        "--json"},
       {{{"--socket", "s", "poll", "12abc"}, "[JOB_ID]"},
        {{"--socket", "s", "poll", "abc"}, "[JOB_ID]"},
        {{"--socket", "s", "poll", ""}, "[JOB_ID]"},
        {{"--socket", "s", "cancel", "-1"}, "-1"},
        {{"--socket", "s", "submit", "--iters", "12x"}, "--iters"},
        {{"--socket", "s", "submit", "--scale", "nan"}, "--scale"},
        {{"--socket", "s", "submit", "--priority", ""}, "--priority"},
        {{"--socket", "s", "submit", "--seed", "-1"}, "--seed"},
        {{"--socket", "s", "submit", "--kind", "bake"}, "--kind"},
        {{"--socket", "s", "watch", "--count", "-1"}, "--count"},
        {{"--socket", "s", "watch", "--count"}, "--count"},
        {{"--socket", "s", "stats", "--bogus-flag"}, "--bogus-flag"},
        {{"--socket", "s", "wait"}, "JOB_ID"},
        {{"--socket", "s", "frob"}, "frob"},
        {{"stats"}, "--socket"}}},
      {RLCCD_REPORT_BIN,
       {"<run>", "[candidate]", "--profile", "--diff",
        "--max-runtime-regress", "--max-tns-regress",
        "--max-work-ratio-regress", "--json"},
       {{{"--diff", "a", "b", "--max-tns-regress", "5x"}, "--max-tns-regress"},
        {{"--diff", "a", "b", "--max-runtime-regress", "abc"},
         "--max-runtime-regress"},
        {{"--diff", "a", "b", "--max-work-ratio-regress", ""},
         "--max-work-ratio-regress"},
        {{"--diff", "a", "b", "--max-tns-regress", "nan"}, "--max-tns-regress"},
        {{"--diff", "a", "b", "--max-tns-regress", "1e999"},
         "--max-tns-regress"},
        {{"--diff", "a", "b", "--json"}, "--json"},
        {{"--diff", "a"}, "--diff"},
        {{"a", "b"}, "[candidate]"},
        {{"a", "--bogus-flag"}, "--bogus-flag"},
        {{}, "<run>"}}},
  };
}

TEST(ToolCommandLine, HelpListsExactlyTheToolsTable) {
  for (const Tool& tool : tools()) {
    const Outcome o = run(tool.binary, {"--help"});
    EXPECT_EQ(o.exit_code, 0) << tool.binary;
    EXPECT_EQ(o.err, "") << tool.binary;
    // Each entry's line starts with two spaces and its name.
    std::vector<std::string> listed;
    std::istringstream lines(o.out);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("  ", 0) != 0) continue;
      std::istringstream words(line);
      std::string name;
      words >> name;
      listed.push_back(name);
    }
    std::vector<std::string> expected = tool.table;
    std::sort(expected.begin(), expected.end());
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(listed, expected) << tool.binary << " --help:\n" << o.out;
  }
}

TEST(ToolCommandLine, BadArgumentExitsTwoBeforeAnyWork) {
  for (const Tool& tool : tools()) {
    for (const auto& [args, names] : tool.bad) {
      std::string line = tool.binary;
      for (const std::string& a : args) line += " '" + a + "'";
      const Outcome o = run(tool.binary, args);
      EXPECT_EQ(o.exit_code, 2) << line;
      EXPECT_EQ(o.out, "") << line;
      EXPECT_EQ(std::count(o.err.begin(), o.err.end(), '\n'), 1)
          << line << ": " << o.err;
      EXPECT_NE(o.err.find(names), std::string::npos)
          << line << ": " << o.err;
    }
  }
}

// A weights file that cannot load ends the run after the design is
// generated but before training: exit 1, naming the file.
TEST(ToolCommandLine, GnnInThatCannotLoadExitsOneBeforeTraining) {
  const Outcome o =
      run(RLCCD_CLI_BIN, {"train", "block11", "--gnn-in", "/nonexistent.bin"});
  EXPECT_EQ(o.exit_code, 1);
  EXPECT_EQ(o.out, "") << "no training result is printed";
  EXPECT_NE(o.err.find("/nonexistent.bin"), std::string::npos) << o.err;
}

}  // namespace
}  // namespace rlccd
