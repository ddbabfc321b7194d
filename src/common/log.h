// Minimal leveled logging to stderr. Benchmarks and examples set the level
// explicitly; tests run at Warn to keep ctest output readable.
#pragma once

#include <cstdarg>

namespace rlccd {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

void set_log_level(LogLevel level);
LogLevel log_level();

void log_message(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

#define RLCCD_LOG_DEBUG(...) ::rlccd::log_message(::rlccd::LogLevel::Debug, __VA_ARGS__)
#define RLCCD_LOG_INFO(...) ::rlccd::log_message(::rlccd::LogLevel::Info, __VA_ARGS__)
#define RLCCD_LOG_WARN(...) ::rlccd::log_message(::rlccd::LogLevel::Warn, __VA_ARGS__)
#define RLCCD_LOG_ERROR(...) ::rlccd::log_message(::rlccd::LogLevel::Error, __VA_ARGS__)

}  // namespace rlccd
