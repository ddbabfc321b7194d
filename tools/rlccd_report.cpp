// rlccd_report — flight-recorder report and run-diff tool.
//
//   rlccd_report <run>                       # text report for one run
//   rlccd_report --profile <run>             # flat self-time span table
//   rlccd_report --diff <base> <candidate>   # compare two runs
//
// --diff fails a run on its --max-*-regress thresholds (negative: off) and
// --json writes the diff as JSON too; `rlccd_report --help` lists them.
//
// A <run> is a directory containing metrics.json (from --metrics-json),
// audit.jsonl (from --audit-jsonl) and/or BENCH_*.json files (from the
// bench binaries' --json flag), or a single such file.
//
// Exit codes: 0 = ok, 1 = regression detected (--diff), 2 = usage or
// unreadable input.
#include <cstdio>
#include <string>
#include <vector>

#include "common/io.h"
#include "report/report.h"
#include "tools/flags.h"

using namespace rlccd;

namespace {

bool load_or_complain(const std::string& path, RunReport& report) {
  Status s = load_run(path, report);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot load run %s: %s\n", path.c_str(),
                 s.to_string().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool diff_mode = false;
  bool profile_mode = false;
  DiffThresholds thresholds;
  std::string json_out;
  std::string run_path;
  std::string candidate_path;
  const std::vector<tools::Arg> table = {
      {"<run>", nullptr,
       "a directory with metrics.json, audit.jsonl and/or BENCH_*.json, or "
       "one such file; the base run under --diff",
       &run_path},
      {"[candidate]", nullptr, "--diff: the run compared with the base",
       &candidate_path},
      {"--profile", nullptr, "print the flat self-time span table",
       &profile_mode},
      {"--diff", nullptr, "compare <run> with [candidate]", &diff_mode},
      {"--max-runtime-regress", "PCT",
       "--diff: runtime regression allowed; negative: off",
       &thresholds.max_runtime_regress_pct},
      {"--max-tns-regress", "PCT",
       "--diff: final-TNS regression allowed; negative: off",
       &thresholds.max_tns_regress_pct},
      {"--max-work-ratio-regress", "PCT",
       "--diff: work-ratio regression allowed; negative: off",
       &thresholds.max_work_ratio_regress_pct},
      {"--json", "FILE", "--diff: also write the diff as JSON", &json_out},
  };
  std::size_t given = 0;
  if (auto rc = tools::parse_args(argc, argv, table, &given)) return *rc;
  if (profile_mode && diff_mode) {
    std::fprintf(stderr, "--profile and --diff exclude each other\n");
    return 2;
  }
  if (given != (diff_mode ? 2u : 1u)) {
    std::fprintf(stderr, diff_mode ? "--diff needs <run> and [candidate]\n"
                                   : "[candidate] needs --diff\n");
    return 2;
  }

  RunReport base;
  if (!load_or_complain(run_path, base)) return 2;
  if (profile_mode) {
    if (!base.has_metrics) {
      std::fprintf(stderr, "no metrics JSON in %s\n", run_path.c_str());
      return 2;
    }
    std::fputs(render_profile(base).c_str(), stdout);
    return 0;
  }
  if (!diff_mode) {
    std::fputs(render_text_report(base).c_str(), stdout);
    return 0;
  }
  RunReport candidate;
  if (!load_or_complain(candidate_path, candidate)) return 2;
  ReportDiff diff = diff_runs(base, candidate, thresholds);
  std::fputs(diff.to_text().c_str(), stdout);
  if (!json_out.empty()) {
    Status s = atomic_write_file(json_out, diff.to_json() + '\n');
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 2;
    }
  }
  return diff.regressed() ? 1 : 0;
}
