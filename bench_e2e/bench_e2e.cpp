// bench_e2e: the repository's end-to-end benchmark.
//
//   bench_e2e --list
//   bench_e2e [--seed S] [--workload W]... [--seconds N] [--json DIR]
//             [--trace DIR] [--work DIR]
//
// Runs each selected workload (all four by default) for about N seconds
// (default 30) as a series of repeats, each in a fresh child process, and
// prints every end-to-end metric as `workload metric value unit`. With one
// --workload the last stdout line is a JSON result
// {"correct","attempted","failed","metrics"}. --json DIR writes one
// rlccd_report-loadable BENCH_e2e_<workload>.json per workload.
//
// --trace DIR is the separate traced run: per workload a few untraced
// repeats, one traced repeat (TraceRecorder on, bench spans around the calls it
// makes) and one per-layer probe process. It prints and reports the
// per-layer metrics instead, and writes layers-<workload>.json plus Chrome
// traces (trace-<workload>-run.json, trace-<workload>-probes.json).
//
// Every output check (repeat digests, RL TNS vs default, serial vs
// concurrent flow, serve job outcomes) folds into "correct" and the exit
// code: 0 all checks passed, 1 a check failed, 2 a measurement could not be
// taken.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "catalog.h"
#include "common/io.h"
#include "common/log.h"
#include "record.h"
#include "spans.h"
#include "workloads.h"

using namespace rlccd;
using namespace rlccd::bench;

namespace {

namespace fs = std::filesystem;

// Hard cap on one workload's run, so a wedged child cannot push it past the
// benchmark's 180 s limit; children still running then are killed.
constexpr double kWorkloadBudgetSec = 170.0;
double g_deadline = 0.0;  // steady-clock seconds; reset per workload

struct Options {
  std::uint64_t seed = 1;
  std::vector<const Workload*> workloads;
  int seconds = 30;
  std::string json_dir;
  std::string trace_dir;
  std::string work_dir;
};

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// -- child processes ------------------------------------------------------------

struct ChildRun {
  Record record;
  double wall_sec = 0.0;
  double cpu_sec = 0.0;      // user + system, the child and its reaped tree
  double maxrss_mb = 0.0;    // max RSS over the same tree
  double minor_faults = 0.0;  // page faults served without I/O, same tree
  std::string error;         // why no record, when set
};

// Re-executes this binary with `args`, collects its stdout records and its
// resource usage. The child leads its own process group, so a timeout kills
// everything it started.
ChildRun spawn_child(const std::vector<std::string>& args) {
  ChildRun run;
  int fds[2];
  if (::pipe(fds) != 0) {
    run.error = std::string("pipe: ") + std::strerror(errno);
    return run;
  }
  const double t0 = now_sec();
  const pid_t pid = ::fork();
  if (pid < 0) {
    run.error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return run;
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    static char self[] = "bench_e2e";
    argv.push_back(self);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::_Exit(127);
  }
  ::setpgid(pid, pid);
  ::close(fds[1]);
  std::string out;
  bool timed_out = false;
  for (;;) {
    const double left = g_deadline - now_sec();
    if (left <= 0.0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(std::min(left, 1.0) * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (timed_out) ::kill(-pid, SIGKILL);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  // Anything of the child's process group still alive is a leak; stop it.
  ::kill(-pid, SIGKILL);
  run.wall_sec = now_sec() - t0;
  run.cpu_sec = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                           ru.ru_stime.tv_usec);
  run.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  run.minor_faults = static_cast<double>(ru.ru_minflt);
  if (timed_out) {
    run.error = "still running at the " +
                std::to_string(static_cast<int>(kWorkloadBudgetSec)) +
                " s workload budget";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    run.error = WIFSIGNALED(status)
                    ? "killed by signal " + std::to_string(WTERMSIG(status))
                    : "exit code " + std::to_string(WEXITSTATUS(status));
  } else if (!parse_record(out, run.record, run.error)) {
    run.error = "bad record: " + run.error;
  }
  return run;
}

// Reaps orphans this process inherited as child subreaper.
void reap_orphans() {
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
}

std::vector<std::string> child_args(const char* mode, const Workload& w,
                                    const Options& o, const std::string& work,
                                    const std::string& trace_out) {
  std::vector<std::string> args = {mode,    std::string(w.name),
                                   "--seed", std::to_string(o.seed),
                                   "--work", work};
  if (!trace_out.empty()) {
    args.push_back("--traced");
    args.push_back(trace_out);
  }
  return args;
}

// -- one workload ---------------------------------------------------------------

struct Result {
  std::map<std::string, double> metrics;  // catalog name -> value
  std::map<std::string, double> info;
  std::vector<Check> checks;
  double attempted = 0.0;
  double failed = 0.0;
  std::string error;  // a measurement could not be taken

  [[nodiscard]] bool correct() const {
    if (failed > 0.0) return false;
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

// Merges a child's checks (one entry per check name: failed if any repeat
// failed it) and its attempted/failed counts into `out`.
void fold_checks(const Record& r, Result& out) {
  for (const Check& c : r.checks) {
    auto it = std::find_if(out.checks.begin(), out.checks.end(),
                           [&](const Check& e) { return e.name == c.name; });
    if (it == out.checks.end()) {
      out.checks.push_back(c);
    } else if (it->ok && !c.ok) {
      *it = c;
    }
  }
  auto sum = [&](const char* name) {
    auto it = r.values.find(name);
    double s = 0.0;
    if (it != r.values.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  };
  out.attempted += sum("attempted");
  out.failed += sum("failed");
}

std::string make_work_dir(const Options& o, const Workload& w, int n) {
  const std::string dir = o.work_dir + "/" + std::string(w.name) + "-" +
                          std::to_string(::getpid()) + "-" + std::to_string(n);
  std::error_code ec;
  fs::create_directories(dir, ec);
  return dir;
}

// Untraced: repeats in fresh processes until the time budget is spent (at
// least the workload's minimum, at most `max_repeats` when positive). A
// further repeat starts only if one more of the last one's length still
// fits.
Result run_untraced(const Options& o, const Workload& w, int max_repeats) {
  Result res;
  std::vector<ChildRun> runs;
  const double t0 = now_sec();
  for (int n = 0;; ++n) {
    const std::string work = make_work_dir(o, w, n);
    ChildRun run = spawn_child(child_args("--child", w, o, work, ""));
    std::error_code ec;
    fs::remove_all(work, ec);
    reap_orphans();
    if (!run.error.empty()) {
      res.error = std::string(w.name) + " repeat " + std::to_string(n) +
                  ": " + run.error;
      return res;
    }
    runs.push_back(std::move(run));
    const int done = static_cast<int>(runs.size());
    const double elapsed = now_sec() - t0;
    if (done == max_repeats ||
        (done >= w.min_repeats && elapsed + runs.back().wall_sec > o.seconds)) {
      break;
    }
  }

  std::vector<double> setup, run_s, ops, cpu, faults, rss;
  for (const ChildRun& r : runs) {
    auto values = [&](const char* name) -> const std::vector<double>& {
      static const std::vector<double> none;
      auto it = r.record.values.find(name);
      return it == r.record.values.end() ? none : it->second;
    };
    for (double v : values("setup_s")) setup.push_back(v);
    for (double v : values("run_s")) run_s.push_back(v);
    for (double v : values("op")) ops.push_back(v);
    cpu.push_back(r.cpu_sec);
    faults.push_back(r.minor_faults);
    rss.push_back(r.maxrss_mb);
    fold_checks(r.record, res);
    for (const auto& [k, v] : r.record.info) res.info[k] = v;
  }
  // A result every repeat must reproduce exactly.
  for (const auto& [name, digest] : runs.front().record.digests) {
    bool same = true;
    for (const ChildRun& r : runs) {
      auto it = r.record.digests.find(name);
      same = same && it != r.record.digests.end() && it->second == digest;
    }
    res.checks.push_back({name + "_repeats", same,
                          std::to_string(runs.size()) + " repeats"});
  }
  if (setup.empty() || run_s.empty() || ops.empty()) {
    res.error = std::string(w.name) + ": a repeat reported no samples";
    return res;
  }
  res.metrics["setup_s"] = median(setup);
  res.metrics["run_s"] = median(run_s);
  res.metrics["op_p50_s"] = median(ops);
  res.metrics["peak_rss_mb"] = median(rss);
  res.info["op_p90_s"] = quantile(ops, 0.9);
  res.info["cpu_s"] = median(cpu);
  res.info["repeats"] = static_cast<double>(runs.size());
  res.info["op_samples"] = static_cast<double>(ops.size());
  double op_sum = 0.0;
  for (double v : ops) op_sum += v;
  res.info["op_mean_s"] = op_sum / static_cast<double>(ops.size());
  res.info["minor_faults"] = median(faults);
  return res;
}

// Traced: the workload's minimum of untraced repeats for reference (their
// medians are what coverage and overhead divide by), one traced repeat, one
// probe process; reports the per-layer metrics.
Result run_traced(const Options& o, const Workload& w) {
  Result base = run_untraced(o, w, w.min_repeats);
  if (!base.error.empty()) return base;

  Result res;
  res.checks = base.checks;
  res.attempted = base.attempted;
  res.failed = base.failed;
  const std::string prefix = o.trace_dir + "/trace-" + std::string(w.name);
  ChildRun runs[2];
  const char* modes[2] = {"--child", "--probe"};
  const char* suffix[2] = {"-run.json", "-probes.json"};
  for (int i = 0; i < 2; ++i) {
    const std::string work = make_work_dir(o, w, 100 + i);
    runs[i] = spawn_child(child_args(modes[i], w, o, work, prefix + suffix[i]));
    std::error_code ec;
    fs::remove_all(work, ec);
    reap_orphans();
    if (!runs[i].error.empty()) {
      res.error = std::string(w.name) + " " + (modes[i] + 2) + ": " +
                  runs[i].error;
      return res;
    }
    fold_checks(runs[i].record, res);
    for (const auto& [k, v] : runs[i].record.layers) res.metrics[k] = v;
    for (const auto& [k, v] : runs[i].record.info) res.info[k] = v;
  }

  res.metrics["os.cpu_s"] = base.info["cpu_s"];
  res.metrics["os.minor_faults"] = base.info["minor_faults"];
  const double untraced_run = base.metrics["run_s"];
  const double traced_run = runs[0].record.value("run_s", 0.0);
  res.metrics["trace.overhead_pct"] =
      untraced_run > 0.0 ? 100.0 * (traced_run - untraced_run) / untraced_run
                         : 0.0;
  // How much of one op the probes account for: the iteration they rebuild
  // (train) or a serial miss (flow) over the untraced op median; submit +
  // mean queue wait + mean job run over the mean job (serve).
  double coverage = 0.0;
  switch (w.kind) {
    case WorkloadKind::kTrain:
    case WorkloadKind::kFlow:
      coverage = res.info["op_probe_sec"] / base.metrics["op_p50_s"];
      break;
    case WorkloadKind::kServe:
      coverage = (1e-3 * res.metrics["serve.submit_rtt_ms"] +
                  res.metrics["serve.queue_wait_mean_s"] +
                  res.metrics["serve.job_run_mean_s"]) /
                 base.info["op_mean_s"];
      break;
  }
  res.metrics["probe.coverage_pct"] = 100.0 * coverage;

  for (const MetricDef& m : kPerLayer) {
    if (res.metrics.count(std::string(m.name)) == 0) {
      res.error = std::string(w.name) + ": traced run did not report " +
                  std::string(m.name);
      return res;
    }
  }
  return res;
}

// -- output -----------------------------------------------------------------------

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

std::span<const MetricDef> reported(bool traced) {
  if (traced) return kPerLayer;
  return kEndToEnd;
}

void print_metrics(const Workload& w, const Result& r,
                   std::span<const MetricDef> defs) {
  for (const MetricDef& m : defs) {
    const auto it = r.metrics.find(std::string(m.name));
    std::printf("%-15.*s %-30.*s %14.6g %.*s\n",
                static_cast<int>(w.name.size()), w.name.data(),
                static_cast<int>(m.name.size()), m.name.data(),
                it != r.metrics.end() ? it->second : 0.0,
                static_cast<int>(m.unit.size()), m.unit.data());
  }
}

std::string metrics_object(const Result& r, std::span<const MetricDef> defs,
                           bool with_units) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& m : defs) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += m.name;
    out += "\":";
    const double v = r.metrics.at(std::string(m.name));
    if (with_units) {
      out += "{\"value\":";
      append_number(out, v);
      out += ",\"unit\":\"";
      out += m.unit;
      out += "\"}";
    } else {
      append_number(out, v);
    }
  }
  return out + "}";
}

void print_report(const Workload& w, const Result& r, bool traced) {
  print_metrics(w, r, reported(traced));
  for (const auto& [k, v] : r.info) {
    std::printf("%-15.*s info.%-25s %14.6g\n", static_cast<int>(w.name.size()),
                w.name.data(), k.c_str(), v);
  }
  for (const Check& c : r.checks) {
    std::printf("%-15.*s check.%-24s %s %s\n", static_cast<int>(w.name.size()),
                w.name.data(), c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  }
  std::printf("%-15.*s attempted %.0f failed %.0f\n",
              static_cast<int>(w.name.size()), w.name.data(), r.attempted,
              r.failed);
}

bool write_doc(const std::string& path, const std::string& bench,
               const std::string& metrics) {
  Status s = atomic_write_file(
      path, "{\"bench\":\"" + bench + "\",\"metrics\":" + metrics + "}\n");
  if (!s.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", s.to_string().c_str());
  }
  return s.ok();
}

// -- command line -----------------------------------------------------------------

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bench_e2e --list\n"
               "       bench_e2e [--seed S] [--workload W]... [--seconds N]\n"
               "                 [--json DIR] [--trace DIR] [--work DIR]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(out, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(out, "\n");
}

void print_list() {
  for (const Workload& w : kWorkloads) {
    std::printf("workload %.*s\n", static_cast<int>(w.name.size()),
                w.name.data());
  }
  for (const bool traced : {false, true}) {
    for (const MetricDef& m : reported(traced)) {
      std::printf("%s %.*s %.*s %.*s\n", traced ? "per_layer" : "end_to_end",
                  static_cast<int>(m.name.size()), m.name.data(),
                  static_cast<int>(m.unit.size()), m.unit.data(),
                  static_cast<int>(m.better.size()), m.better.data());
    }
  }
}

std::string absolute(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  const fs::path abs = fs::absolute(path, ec);
  return ec ? path : abs.lexically_normal().string();
}

int child_main(const char* mode, int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  // Line-buffered: the workloads fork (isolated rollouts, the daemon), and
  // a child must not inherit, and flush again, records still in the buffer.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  ChildOptions co;
  if (argc < 3 || (co.workload = find_workload(argv[2])) == nullptr) {
    std::fprintf(stderr, "bench_e2e %s: unknown workload\n", mode);
    return 2;
  }
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      co.seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--work") {
      co.work_dir = argv[i + 1];
    } else if (flag == "--traced") {
      co.traced = true;
      co.trace_out = argv[i + 1];
    }
  }
  if (std::strcmp(mode, "--probe") == 0) return run_probes(co);
  return run_repeat(co);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--child") == 0 ||
                    std::strcmp(argv[1], "--probe") == 0)) {
    return child_main(argv[1], argc, argv);
  }
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--list") {
      print_list();
      return 0;
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--workload") {
      const char* name = value();
      const Workload* w = find_workload(name);
      if (w == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", name);
        usage(stderr);
        return 2;
      }
      o.workloads.push_back(w);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(value());
    } else if (a == "--json") {
      o.json_dir = value();
    } else if (a == "--trace") {
      o.trace_dir = value();
    } else if (a == "--work") {
      o.work_dir = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (o.seed == 0 || o.seconds < 0) {
    std::fprintf(stderr, "--seed must be >= 1 and --seconds >= 0\n");
    return 2;
  }
  if (o.workloads.empty()) {
    for (const Workload& w : kWorkloads) o.workloads.push_back(&w);
  }
  if (o.work_dir.empty()) {
    std::error_code ec;
    o.work_dir = fs::read_symlink("/proc/self/exe", ec).parent_path().string() +
                 "/e2e-work";
  }
  o.work_dir = absolute(o.work_dir);
  const bool traced = !o.trace_dir.empty();
  if (traced) o.trace_dir = absolute(o.trace_dir);
  if (!o.json_dir.empty()) o.json_dir = absolute(o.json_dir);
  // Orphaned grandchildren (a daemon's job children, isolated rollout
  // workers) reparent here instead of init, so reap_orphans() can wait for
  // them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  bool all_correct = true;
  std::string last_json;
  for (const Workload* w : o.workloads) {
    g_deadline = now_sec() + kWorkloadBudgetSec;
    Result r = traced ? run_traced(o, *w) : run_untraced(o, *w, 0);
    if (!r.error.empty()) {
      std::fprintf(stderr, "bench_e2e: %s\n", r.error.c_str());
      return 2;
    }
    print_report(*w, r, traced);
    all_correct = all_correct && r.correct();
    const std::string metrics = metrics_object(r, reported(traced), false);
    if (traced) {
      write_doc(o.trace_dir + "/layers-" + std::string(w->name) + ".json",
                "layers_" + std::string(w->name), metrics);
    } else if (!o.json_dir.empty()) {
      write_doc(o.json_dir + "/BENCH_e2e_" + std::string(w->name) + ".json",
                "e2e_" + std::string(w->name), metrics);
    }
    char counts[96];
    std::snprintf(counts, sizeof(counts), "\"attempted\":%.0f,\"failed\":%.0f,",
                  std::max(1.0, r.attempted), r.failed);
    last_json = std::string("{\"correct\":") + (r.correct() ? "true" : "false") +
                "," + counts + "\"metrics\":" +
                metrics_object(r, reported(traced), true) +
                "}";
    std::fflush(stdout);
  }
  std::error_code ec;
  fs::remove_all(o.work_dir, ec);
  if (o.workloads.size() == 1) std::printf("%s\n", last_json.c_str());
  return all_correct ? 0 : 1;
}
