#include "report/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace icgkit::report {
namespace {

TEST(TableTest, NeedsHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, BuildsRows) {
  Table t({"Subject", "r"});
  t.row().add("Subject 1").add(0.9081);
  t.row().add("Subject 2").add(0.9471);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.rows()[0][0], "Subject 1");
  EXPECT_EQ(t.rows()[1][1], "0.9471");
}

TEST(TableTest, TooManyCellsThrows) {
  Table t({"a"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), std::logic_error);
}

TEST(TableTest, PrintContainsHeaderAndUnderline) {
  Table t({"col", "value"});
  t.row().add("x").add(1.5, 1);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("col"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(TableTest, DoublePrecisionControl) {
  Table t({"v"});
  t.row().add(3.14159, 2);
  EXPECT_EQ(t.rows()[0][0], "3.14");
}

TEST(TableTest, BannerFormat) {
  std::ostringstream os;
  banner(os, "Table I");
  EXPECT_EQ(os.str(), "\n== Table I ==\n");
}

} // namespace
} // namespace icgkit::report
