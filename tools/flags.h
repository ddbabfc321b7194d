// One flag table per tool, read by one parser.
//
// Every tool declares each argument it takes as an Arg: a flag with a value
// ("--workers N"), a switch ("--resume", which sets a bool) or a positional
// ("<block|cells>", "[scale]"), with its help line, the variable it fills
// and the values that variable accepts. parse_args() walks argv against the
// table and prints --help from it, so the help cannot drift from what
// parses. Every number, flag value or positional alike, is converted by one
// rule: the whole token, finite, and inside the entry's Range; a string with
// an Accepts check (a block name, a command) must pass it. A bad
// argument ends the tool with one stderr line naming it and exit status 2,
// before any work starts.
//
// This file depends on nothing but the standard library; the flags the
// training tools share live in tools/common_args.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

namespace rlccd {
namespace tools {

// The variable an entry fills; a bool makes the entry a switch.
using Target =
    std::variant<std::string*, bool*, int*, long*, std::uint64_t*, double*>;

// The numbers an entry accepts: [lo, hi], or (lo, hi] when open_lo. A
// default outside the range marks "not given" and is not shown as one.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool open_lo = false;
};
inline constexpr Range kCount{0.0};
inline constexpr Range kAtLeastOne{1.0};
inline constexpr Range kUnit{0.0, 1.0};
// A block's share of the paper's cell count (designgen/blocks.h).
inline constexpr Range kScale{0.0, 1.0, true};

// The strings an entry accepts; null accepts any.
using Accepts = bool (*)(const std::string&);

struct Arg {
  // "--name" for a flag or a switch. A positional's name is printed as is
  // in the usage line: "<name>" is required, "[name]" optional.
  const char* name;
  const char* value_name;  // a flag's value placeholder ("N"); else null
  const char* help;
  Target target;
  Range range = {};
  Accepts accepts = nullptr;
};

// Converts `token` into `arg`'s target: a string when the entry accepts it,
// a number when it is the whole token, finite and in the entry's range; a
// switch is set whatever the token. Otherwise prints one stderr line naming
// the entry and returns false, leaving the target unchanged.
bool parse_value(const Arg& arg, std::string_view token);

// Parses argv[1..] against `table`: a flag fills its target from the token
// after it, a switch sets its bool, and the other tokens fill the
// positionals in table order. Returns nullopt when the tool should run;
// otherwise the status to exit with: 0 after printing the help ("--help" or
// "-h" anywhere), 2 after one stderr line on an unknown flag, a missing
// value or positional, a bad number or an extra argument. `positionals`,
// when given, receives how many positionals argv held.
std::optional<int> parse_args(int argc, char** argv, std::span<const Arg> table,
                              std::size_t* positionals = nullptr);

}  // namespace tools
}  // namespace rlccd
