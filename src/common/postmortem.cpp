#include "common/postmortem.h"

#include "common/io.h"
#include "common/json_writer.h"

namespace rlccd {

namespace {

// dur_sec < 0 marks an instant, as in CollectedTraceEvent.
void event_to_json(std::string& out, const CollectedTraceEvent& ev) {
  out += "{\"name\":\"";
  json_escape(out, ev.name);
  out += "\",\"start_sec\":";
  append_json_number(out, ev.start_sec);
  out += ",\"dur_sec\":";
  append_json_number(out, ev.dur_sec);
  out += ",\"tid\":";
  append_json_number(out, static_cast<double>(ev.tid));
  out += '}';
}

}  // namespace

std::string PostmortemReport::to_json() const {
  std::string out = "{\"job\":\"";
  json_escape(out, job);
  out += "\",\"attempt\":";
  append_json_number(out, static_cast<std::uint64_t>(attempt));
  out += ",\"pid\":";
  append_json_number(out, static_cast<std::uint64_t>(pid));
  out += ",\"classification\":\"";
  json_escape(out, classification);
  out += "\",\"exit_code\":";
  append_json_number(out, static_cast<double>(exit_code));
  out += ",\"term_signal\":";
  append_json_number(out, static_cast<double>(term_signal));
  out += ",\"wall_sec\":";
  append_json_number(out, wall_sec);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i) out += ',';
    event_to_json(out, events[i]);
  }
  out += "]}";
  return out;
}

Status write_postmortem_json(const std::string& path,
                             const PostmortemReport& report) {
  std::string json = report.to_json();
  json += '\n';
  return atomic_write_file(path, json);
}

}  // namespace rlccd
