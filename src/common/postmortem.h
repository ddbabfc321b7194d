// Crash postmortems: the JSON report the serve daemon writes when a job
// attempt dies without a result. Its events are the tail of the trace
// events the child shipped before dying (common/trace.h): the spans it
// closed and the instants it marked (attempt start, each progress step).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace rlccd {

// The forensic record the parent writes when a worker dies without a
// result: identity, the crash classification, and the last trace events
// the child shipped before dying.
struct PostmortemReport {
  std::string job;
  std::int32_t attempt = 0;
  std::int32_t pid = 0;
  std::string classification;  // "exit" | "signal" | "timeout" | "protocol"
  std::int32_t exit_code = 0;
  std::int32_t term_signal = 0;
  double wall_sec = 0.0;  // attempt wall-clock at classification
  std::vector<CollectedTraceEvent> events;  // oldest first

  [[nodiscard]] std::string to_json() const;
};

Status write_postmortem_json(const std::string& path,
                             const PostmortemReport& report);

}  // namespace rlccd
