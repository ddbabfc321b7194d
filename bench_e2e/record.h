// The line protocol between a measured child process and the orchestrator.
//
// Every repeat (and every probe run) is a fresh process whose stdout is a
// pipe to the orchestrator; it writes one fact per line:
//
//   v <name> <number>        an end-to-end sample (setup_s, run_s, op, ...)
//   i <name> <number>        context value (TNS gain, ...), not a metric
//   l <name> <number>        a per-layer metric value
//   d <name> <text>          a result digest that must repeat exactly
//   c <name> <0|1> <detail>  an output check and whether it passed
//
// Numbers are printed with 17 significant digits so nothing is lost.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rlccd::bench {

void emit_value(std::string_view name, double value);
void emit_info(std::string_view name, double value);
void emit_layer(std::string_view name, double value);
void emit_digest(std::string_view name, std::string_view text);
void emit_check(std::string_view name, bool ok, std::string_view detail);

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Record {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, double> info;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> digests;
  std::vector<Check> checks;

  [[nodiscard]] double value(const std::string& name, double fallback) const;
};

// Parses a child's whole stdout; false on a malformed line.
bool parse_record(std::string_view text, Record& out, std::string& error);

// Median of samples (mean of the middle two for an even count); 0 if empty.
double median(std::vector<double> samples);

}  // namespace rlccd::bench
