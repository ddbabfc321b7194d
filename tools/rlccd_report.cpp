// rlccd_report — flight-recorder report and run-diff tool.
//
//   rlccd_report <run>                       # text report for one run
//   rlccd_report --profile <run>             # flat self-time span table
//   rlccd_report --diff <base> <candidate>   # compare two runs
//             [--max-runtime-regress PCT]    # default 10 (negative: off)
//             [--max-tns-regress PCT]        # default 2  (negative: off)
//             [--max-work-ratio-regress PCT] # default 25 (negative: off)
//             [--json FILE]                  # write machine-readable diff
//
// A <run> is a directory containing metrics.json (from --metrics-json),
// audit.jsonl (from --audit-jsonl) and/or BENCH_*.json files (from the
// bench binaries' --json flag), or a single such file.
//
// Exit codes: 0 = ok, 1 = regression detected (--diff), 2 = usage or
// unreadable input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report/report.h"

using namespace rlccd;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rlccd_report <run>\n"
               "       rlccd_report --profile <run>\n"
               "       rlccd_report --diff <base> <candidate>\n"
               "                    [--max-runtime-regress PCT] "
               "[--max-tns-regress PCT]\n"
               "                    [--max-work-ratio-regress PCT] "
               "[--json FILE]\n"
               "a <run> is a directory with metrics.json, audit.jsonl and/or "
               "BENCH_*.json, or one such file\n");
  return 2;
}

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
  std::vector<std::string> runs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      diff_mode = true;
    } else if (arg == "--profile") {
      profile_mode = true;
    } else if (arg == "--max-runtime-regress" && i + 1 < argc) {
      thresholds.max_runtime_regress_pct = std::atof(argv[++i]);
    } else if (arg == "--max-tns-regress" && i + 1 < argc) {
      thresholds.max_tns_regress_pct = std::atof(argv[++i]);
    } else if (arg == "--max-work-ratio-regress" && i + 1 < argc) {
      thresholds.max_work_ratio_regress_pct = std::atof(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage();
    } else {
      runs.push_back(arg);
    }
  }

  if (profile_mode) {
    if (diff_mode || runs.size() != 1) return usage();
    RunReport report;
    if (!load_or_complain(runs[0], report)) return 2;
    if (!report.has_metrics) {
      std::fprintf(stderr, "no metrics JSON in %s\n", runs[0].c_str());
      return 2;
    }
    std::fputs(render_profile(report).c_str(), stdout);
    return 0;
  }

  if (!diff_mode) {
    if (runs.size() != 1) return usage();
    RunReport report;
    if (!load_or_complain(runs[0], report)) return 2;
    std::fputs(render_text_report(report).c_str(), stdout);
    return 0;
  }

  if (runs.size() != 2) return usage();
  RunReport base, candidate;
  if (!load_or_complain(runs[0], base)) return 2;
  if (!load_or_complain(runs[1], candidate)) return 2;
  ReportDiff diff = diff_runs(base, candidate, thresholds);
  std::fputs(diff.to_text().c_str(), stdout);
  if (!json_out.empty()) {
    const std::string json = diff.to_json();
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return diff.regressed() ? 1 : 0;
}
