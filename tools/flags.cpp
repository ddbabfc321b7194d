#include "tools/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rlccd {
namespace tools {

namespace {

bool in_range(double v, Range r) {
  return (r.open_lo ? v > r.lo : v >= r.lo) && v <= r.hi;
}

// " (default X)" for a string that is set or a number inside its range.
std::string default_text(const Arg& arg) {
  return std::visit(
      [&](auto* v) -> std::string {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return v->empty() ? "" : " (default " + *v + ")";
        } else if constexpr (!std::is_same_v<T, bool>) {
          char buf[48];
          std::snprintf(buf, sizeof(buf), " (default %g)",
                        static_cast<double>(*v));
          if (in_range(static_cast<double>(*v), arg.range)) return buf;
        }
        return "";
      },
      arg.target);
}

void print_help(std::string_view argv0, std::span<const Arg> table) {
  std::string usage = "usage: ";
  usage += argv0.substr(argv0.rfind('/') + 1);
  usage += " [flags]";
  for (const Arg& arg : table) {
    if (arg.name[0] != '-') usage += std::string(" ") + arg.name;
  }
  std::printf("%s\n", usage.c_str());
  for (const Arg& arg : table) {
    char left[48];
    std::snprintf(left, sizeof(left), "%s %s", arg.name,
                  arg.value_name != nullptr ? arg.value_name : "");
    std::printf("  %-28s %s%s\n", left, arg.help, default_text(arg).c_str());
  }
}

}  // namespace

bool parse_value(const Arg& arg, std::string_view token) {
  const auto invalid = [&] {
    std::fprintf(stderr, "%s: invalid value '%.*s'\n", arg.name,
                 static_cast<int>(token.size()), token.data());
    return false;
  };
  return std::visit(
      [&](auto* v) {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          if (arg.accepts != nullptr && !arg.accepts(std::string(token))) {
            return invalid();
          }
          *v = token;
          return true;
        } else if constexpr (std::is_same_v<T, bool>) {
          *v = true;  // a switch: present means on
          return true;
        } else {
          T n{};
          const char* end = token.data() + token.size();
          const auto [stop, ec] = std::from_chars(token.data(), end, n);
          bool ok = ec == std::errc() && stop == end;
          if constexpr (std::is_floating_point_v<T>) {
            ok = ok && std::isfinite(n);
          }
          if (!ok) return invalid();
          const Range& r = arg.range;
          if (!in_range(static_cast<double>(n), r)) {
            std::fprintf(stderr, "%s: '%.*s' is outside %c%g, %g%c\n",
                         arg.name, static_cast<int>(token.size()),
                         token.data(), r.open_lo ? '(' : '[', r.lo, r.hi,
                         std::isinf(r.hi) ? ')' : ']');
            return false;
          }
          *v = n;
          return true;
        }
      },
      arg.target);
}

std::optional<int> parse_args(int argc, char** argv, std::span<const Arg> table,
                              std::size_t* positionals) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_help(argv[0], table);
      return 0;
    }
  }
  std::vector<const Arg*> slots;  // the positionals, in table order
  for (const Arg& arg : table) {
    if (arg.name[0] != '-') slots.push_back(&arg);
  }
  std::size_t given = 0;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' && argv[i][1] != '\0') {
      const Arg* flag = nullptr;
      for (const Arg& arg : table) {
        if (std::strcmp(arg.name, argv[i]) == 0) flag = &arg;
      }
      if (flag == nullptr) {
        std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
        return 2;
      }
      // A switch takes no value token.
      if (!std::holds_alternative<bool*>(flag->target) && ++i == argc) {
        std::fprintf(stderr, "%s: missing %s value\n", flag->name,
                     flag->value_name);
        return 2;
      }
      if (!parse_value(*flag, argv[i])) return 2;
    } else if (given == slots.size()) {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      return 2;
    } else if (!parse_value(*slots[given++], argv[i])) {
      return 2;
    }
  }
  for (std::size_t k = given; k < slots.size(); ++k) {
    if (slots[k]->name[0] == '<') {
      std::fprintf(stderr, "missing %s\n", slots[k]->name);
      return 2;
    }
  }
  if (positionals != nullptr) *positionals = given;
  return std::nullopt;
}

}  // namespace tools
}  // namespace rlccd
