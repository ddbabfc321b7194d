// The crash postmortem report: the JSON the serve daemon writes when a job
// attempt dies, listing the tail of the trace events the child shipped.
#include "common/postmortem.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/io.h"
#include "common/json.h"
#include "helpers/temp_path.h"

namespace rlccd {
namespace {

TEST(PostmortemTest, ReportJsonRoundTripsThroughWriter) {
  PostmortemReport rep;
  rep.job = "7";
  rep.attempt = 2;
  rep.pid = 4242;
  rep.classification = "signal";
  rep.term_signal = 9;
  rep.wall_sec = 1.5;
  rep.events.push_back({"train/\"quoted\"\nstep", 0.25, 0.125, 3});
  rep.events.push_back({"attempt start", 0.5, -1.0, 0});

  const std::string path = testing::temp_path("postmortem_test_report.json");
  ASSERT_TRUE(write_postmortem_json(path, rep).ok());
  std::string text;
  ASSERT_TRUE(read_file(path, text).ok());
  std::remove(path.c_str());

  JsonValue doc;
  ASSERT_TRUE(JsonValue::parse(text, doc).ok()) << text;
  EXPECT_EQ(doc.string_or("job", ""), "7");
  EXPECT_EQ(doc.number_or("attempt", 0.0), 2.0);
  EXPECT_EQ(doc.number_or("pid", 0.0), 4242.0);
  EXPECT_EQ(doc.string_or("classification", ""), "signal");
  EXPECT_EQ(doc.number_or("term_signal", 0.0), 9.0);
  const JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array_items().size(), 2u);
  const JsonValue& span = events->array_items()[0];
  EXPECT_EQ(span.string_or("name", ""), "train/\"quoted\"\nstep")
      << "escaping survives the round trip";
  EXPECT_EQ(span.number_or("start_sec", 0.0), 0.25);
  EXPECT_EQ(span.number_or("dur_sec", 0.0), 0.125);
  EXPECT_EQ(span.number_or("tid", 0.0), 3.0);
  const JsonValue& instant = events->array_items()[1];
  EXPECT_EQ(instant.string_or("name", ""), "attempt start");
  EXPECT_LT(instant.number_or("dur_sec", 0.0), 0.0) << "an instant";
}

}  // namespace
}  // namespace rlccd
