#include "record.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace rlccd::bench {

namespace {

void emit_number(char kind, std::string_view name, double value) {
  std::printf("%c %.*s %.17g\n", kind, static_cast<int>(name.size()),
              name.data(), value);
}

}  // namespace

void emit_value(std::string_view name, double value) {
  emit_number('v', name, value);
}
void emit_info(std::string_view name, double value) {
  emit_number('i', name, value);
}
void emit_layer(std::string_view name, double value) {
  emit_number('l', name, value);
}

void emit_digest(std::string_view name, std::string_view text) {
  std::printf("d %.*s %.*s\n", static_cast<int>(name.size()), name.data(),
              static_cast<int>(text.size()), text.data());
}

void emit_check(std::string_view name, bool ok, std::string_view detail) {
  std::printf("c %.*s %d %.*s\n", static_cast<int>(name.size()), name.data(),
              ok ? 1 : 0, static_cast<int>(detail.size()), detail.data());
}

double Record::value(const std::string& name, double fallback) const {
  auto it = values.find(name);
  return it == values.end() || it->second.empty() ? fallback
                                                  : it->second.front();
}

bool parse_record(std::string_view text, Record& out, std::string& error) {
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind, name;
    ls >> kind >> name;
    std::string rest;
    std::getline(ls, rest);
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    if (kind.size() != 1 || name.empty()) {
      error = "malformed line: " + line;
      return false;
    }
    if (kind == "d") {
      out.digests[name] = rest;
      continue;
    }
    if (kind == "c") {
      Check c;
      c.name = name;
      c.ok = !rest.empty() && rest.front() == '1';
      c.detail = rest.size() > 2 ? rest.substr(2) : std::string();
      out.checks.push_back(std::move(c));
      continue;
    }
    char* end = nullptr;
    const double v = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) {
      error = "malformed number: " + line;
      return false;
    }
    if (kind == "v") {
      out.values[name].push_back(v);
    } else if (kind == "i") {
      out.info[name] = v;
    } else if (kind == "l") {
      out.layers[name] = v;
    } else {
      error = "unknown line kind: " + line;
      return false;
    }
  }
  return true;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace rlccd::bench
