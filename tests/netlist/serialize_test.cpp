#include "netlist/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/fault.h"
#include "designgen/generator.h"
#include "helpers/test_circuits.h"
#include "helpers/temp_path.h"
#include "sta/sta.h"

namespace rlccd {
namespace {

using testing::Pipeline;

TEST(NetlistSerialize, RoundTripPreservesStructure) {
  Pipeline p;
  std::stringstream buf;
  write_netlist(*p.c.nl, buf);
  std::unique_ptr<Netlist> loaded;
  ASSERT_TRUE(read_netlist(*p.c.lib, buf, loaded).ok());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->num_cells(), p.c.nl->num_cells());
  EXPECT_EQ(loaded->num_nets(), p.c.nl->num_nets());
  EXPECT_EQ(loaded->num_pins(), p.c.nl->num_pins());
  for (const Cell& c : p.c.nl->cells()) {
    const Cell& l = loaded->cell(c.id);
    EXPECT_EQ(l.name, c.name);
    EXPECT_EQ(l.lib, c.lib);
    EXPECT_DOUBLE_EQ(l.x, c.x);
  }
}

TEST(NetlistSerialize, RoundTripPreservesTiming) {
  GeneratorConfig cfg;
  cfg.target_cells = 400;
  cfg.seed = 131;
  Design d = generate_design(cfg);
  std::stringstream buf;
  write_netlist(*d.netlist, buf);
  std::unique_ptr<Netlist> loaded;
  ASSERT_TRUE(read_netlist(*d.library, buf, loaded).ok());
  ASSERT_NE(loaded, nullptr);

  Sta orig(d.netlist.get(), d.sta_config, d.clock_period);
  Sta copy(loaded.get(), d.sta_config, d.clock_period);
  orig.run();
  copy.run();
  EXPECT_NEAR(orig.summary().tns, copy.summary().tns, 1e-9);
  EXPECT_EQ(orig.summary().nve, copy.summary().nve);
}

TEST(NetlistSerialize, RejectsBadHeader) {
  Pipeline p;
  std::stringstream buf("not a netlist\n");
  std::unique_ptr<Netlist> loaded;
  Status s = read_netlist(*p.c.lib, buf, loaded);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
  EXPECT_EQ(loaded, nullptr);
}

TEST(NetlistSerialize, RejectsTechMismatch) {
  Pipeline p;  // N12
  std::stringstream buf;
  write_netlist(*p.c.nl, buf);
  Library n5 = Library::make_generic(make_tech(TechNode::N5));
  std::unique_ptr<Netlist> loaded;
  Status s = read_netlist(n5, buf, loaded);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("technology"), std::string::npos) << s.message();
  EXPECT_EQ(loaded, nullptr);
}

TEST(NetlistSerialize, DiagnosesUnknownLibCellWithLineNumber) {
  Pipeline p;
  std::stringstream buf;
  write_netlist(*p.c.nl, buf);
  std::string text = buf.str();
  // Corrupt the first cell record's libcell name.
  std::size_t pos = text.find("cell ");
  ASSERT_NE(pos, std::string::npos);
  std::size_t name_start = text.find(' ', pos + 5) + 1;
  std::size_t name_end = text.find(' ', name_start);
  text.replace(name_start, name_end - name_start, "BOGUSCELL");
  std::stringstream corrupt(text);
  std::unique_ptr<Netlist> loaded;
  Status s = read_netlist(*p.c.lib, corrupt, loaded);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("BOGUSCELL"), std::string::npos) << s.message();
}

TEST(NetlistSerialize, FileRoundTrip) {
  Pipeline p;
  std::string path = testing::temp_path("netlist.txt");
  ASSERT_TRUE(write_netlist_file(*p.c.nl, path).ok());
  std::unique_ptr<Netlist> loaded;
  ASSERT_TRUE(read_netlist_file(*p.c.lib, path, loaded).ok());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->num_cells(), p.c.nl->num_cells());
  std::remove(path.c_str());
  Status missing = read_netlist_file(*p.c.lib, path, loaded);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(loaded, nullptr);
}

TEST(NetlistSerialize, InjectedWriteFaultReturnsIoError) {
  Pipeline p;
  FaultInjector::global().reset();
  FaultInjector::global().arm({"netlist_save_io", 1, 1, 0.0});
  std::string path = testing::temp_path("fault_netlist.txt");
  Status s = write_netlist_file(*p.c.nl, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // The next write (fault exhausted) succeeds.
  EXPECT_TRUE(write_netlist_file(*p.c.nl, path).ok());
  FaultInjector::global().reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlccd
