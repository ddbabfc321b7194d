// Per-process temp file names, so two runs of one test binary on a host
// never share a file.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace rlccd::testing {

inline std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" +
         std::to_string(::getpid()) + "_" + name;
}

}  // namespace rlccd::testing
