#include "common/units.h"

#include <gtest/gtest.h>

#include <ostream>

#include "common/error.h"

namespace staratlas {
namespace {

TEST(ByteSize, Conversions) {
  const ByteSize gib = ByteSize::from_gib(1.0);
  EXPECT_EQ(gib.bytes(), 1ULL << 30);
  EXPECT_DOUBLE_EQ(gib.mib(), 1024.0);
  EXPECT_DOUBLE_EQ(gib.kib(), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(ByteSize::from_tib(1.0).gib(), 1024.0);
}

TEST(ByteSize, PaperSizes) {
  EXPECT_NEAR(ByteSize::from_gib(29.5).gib(), 29.5, 1e-9);
  EXPECT_NEAR(ByteSize::from_gib(85.0).gib(), 85.0, 1e-9);
}

TEST(ByteSize, Arithmetic) {
  const ByteSize a = ByteSize::from_mib(3.0);
  const ByteSize b = ByteSize::from_mib(1.5);
  EXPECT_DOUBLE_EQ((a + b).mib(), 4.5);
  EXPECT_DOUBLE_EQ((a - b).mib(), 1.5);
  EXPECT_DOUBLE_EQ((a * 2.0).mib(), 6.0);
  EXPECT_DOUBLE_EQ((0.5 * a).mib(), 1.5);
  ByteSize c = a;
  c += b;
  EXPECT_DOUBLE_EQ(c.mib(), 4.5);
}

TEST(ByteSize, Comparison) {
  EXPECT_LT(ByteSize::from_gib(29.5), ByteSize::from_gib(85.0));
  EXPECT_EQ(ByteSize(100), ByteSize(100));
  EXPECT_GE(ByteSize(101), ByteSize(100));
}

TEST(ByteSize, StrPicksUnit) {
  EXPECT_EQ(ByteSize(512).str(), "512 B");
  EXPECT_EQ(ByteSize::from_kib(2.0).str(), "2.00 KiB");
  EXPECT_EQ(ByteSize::from_mib(1.5).str(), "1.50 MiB");
  EXPECT_EQ(ByteSize::from_gib(29.5).str(), "29.50 GiB");
  EXPECT_EQ(ByteSize::from_tib(17.0).str(), "17.00 TiB");
  EXPECT_EQ(ByteSize(0).str(), "0 B");
}

struct ParseCase {
  const char* text;
  u64 bytes;
};

// Prints the case by value: gtest's default byte dump of this struct
// includes the text pointer, so the listed test names would change from
// process to process.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << '"' << c.text << "\" -> " << c.bytes;
}

class ByteSizeParse : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ByteSizeParse, Parses) {
  EXPECT_EQ(ByteSize::parse(GetParam().text).bytes(), GetParam().bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ByteSizeParse,
    ::testing::Values(ParseCase{"1024", 1024},
                      ParseCase{"1 KiB", 1024},
                      ParseCase{"1KiB", 1024},
                      ParseCase{"2.5 MiB", 2'621'440},
                      ParseCase{"29.5GiB", 31'675'383'808ULL},
                      ParseCase{" 3 GB ", 3ULL << 30},
                      ParseCase{"0 B", 0},
                      ParseCase{"1 T", 1ULL << 40}));

TEST(ByteSizeParseErrors, Malformed) {
  EXPECT_THROW(ByteSize::parse(""), ParseError);
  EXPECT_THROW(ByteSize::parse("GiB"), ParseError);
  EXPECT_THROW(ByteSize::parse("12 XiB"), ParseError);
  EXPECT_THROW(ByteSize::parse("twelve"), ParseError);
}

}  // namespace
}  // namespace staratlas
