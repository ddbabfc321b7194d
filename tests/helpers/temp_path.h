// Per-process temp file names, so two runs of one test binary on a host
// never share a file, and the removal of a test's workspace.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace rlccd::testing {

inline std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" +
         std::to_string(::getpid()) + "_" + name;
}

// Removes `path` and everything under it; a missing path is not an error.
inline void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  EXPECT_FALSE(ec) << "removing " << path << ": " << ec.message();
}

}  // namespace rlccd::testing
