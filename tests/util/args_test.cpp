#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace baps::util {
namespace {

// Builds a mutable argv from string literals; the vector keeps the storage
// alive for the duration of a parse() call.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(prog_.data());
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::string prog_ = "prog";
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(SplitTest, DropsEmptyItems) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,b,", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{}));
  EXPECT_EQ(split(",,,", ','), (std::vector<std::string>{}));
  EXPECT_EQ(split("single", ','), (std::vector<std::string>{"single"}));
}

TEST(ParseNumberTest, DoubleIsWholeStringStrict) {
  double v = 0.0;
  EXPECT_TRUE(parse_number("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(parse_number("-3", &v));
  EXPECT_DOUBLE_EQ(v, -3.0);
  EXPECT_FALSE(parse_number("", &v));
  EXPECT_FALSE(parse_number("1.5x", &v));
  EXPECT_FALSE(parse_number("x1.5", &v));
}

TEST(ParseNumberTest, Uint64RejectsSignsAndJunk) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_number("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(parse_number("-1", &v));
  EXPECT_FALSE(parse_number("+1", &v));
  EXPECT_FALSE(parse_number("", &v));
  EXPECT_FALSE(parse_number("12a", &v));
}

TEST(ParseByteSizeTest, AcceptsSuffixesCaseInsensitively) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_byte_size("4096", &v));
  EXPECT_EQ(v, 4096u);
  EXPECT_TRUE(parse_byte_size("512k", &v));
  EXPECT_EQ(v, 512u << 10);
  EXPECT_TRUE(parse_byte_size("512K", &v));
  EXPECT_EQ(v, 512u << 10);
  EXPECT_TRUE(parse_byte_size("64m", &v));
  EXPECT_EQ(v, 64ull << 20);
  EXPECT_TRUE(parse_byte_size("2G", &v));
  EXPECT_EQ(v, 2ull << 30);
  EXPECT_TRUE(parse_byte_size("0k", &v));
  EXPECT_EQ(v, 0u);
}

TEST(ParseByteSizeTest, RejectsJunkAndBareSuffixes) {
  std::uint64_t v = 7;
  EXPECT_FALSE(parse_byte_size("", &v));
  EXPECT_FALSE(parse_byte_size("k", &v));
  EXPECT_FALSE(parse_byte_size("12kb", &v));
  EXPECT_FALSE(parse_byte_size("1.5m", &v));
  EXPECT_FALSE(parse_byte_size("-1k", &v));
  EXPECT_FALSE(parse_byte_size("12x", &v));
  EXPECT_EQ(v, 7u);  // failed parses leave the output untouched
}

TEST(ParseByteSizeTest, RejectsOverflowInsteadOfWrapping) {
  std::uint64_t v = 0;
  // 2^64 / 2^30 = 2^34; one above it must overflow with the g suffix.
  EXPECT_TRUE(parse_byte_size("17179869183g", &v));  // 2^34 - 1 fits
  EXPECT_FALSE(parse_byte_size("17179869185g", &v));
  EXPECT_FALSE(parse_byte_size("18446744073709551616", &v));  // 2^64 itself
  // The largest representable value still parses unsuffixed.
  EXPECT_TRUE(parse_byte_size("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(ArgParserTest, BytesOptionParsesSuffixedCapacities) {
  std::uint64_t cap = 0;
  ArgParser parser("prog");
  parser.bytes("--store-capacity", &cap, "BYTES", "disk tier capacity");

  Argv argv({"--store-capacity", "512m"});
  std::string error;
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv(), &error)) << error;
  EXPECT_EQ(cap, 512ull << 20);

  Argv bad({"--store-capacity", "512q"});
  EXPECT_FALSE(parser.parse(bad.argc(), bad.argv(), &error));
  EXPECT_NE(error.find("--store-capacity"), std::string::npos);
}

TEST(ArgParserTest, ParsesFlagsOptionsAndCustoms) {
  bool verbose = false;
  std::string name;
  double ratio = 0.0;
  std::uint64_t count = 0;
  std::vector<std::string> items;
  ArgParser parser("prog");
  parser.flag("--verbose", &verbose, "talk more")
      .option("--name", &name, "S", "a string")
      .option("--ratio", &ratio, "F", "a double")
      .option("--count", &count, "N", "a counter")
      .custom("--items", "LIST", "comma list",
              [&items](const std::string& v) {
                items = split(v, ',');
                return !items.empty();
              });

  Argv argv({"--verbose", "--name", "alice", "--ratio", "0.5", "--count",
             "42", "--items", "a,b"});
  std::string error;
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv(), &error)) << error;
  EXPECT_FALSE(parser.help_requested());
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "alice");
  EXPECT_DOUBLE_EQ(ratio, 0.5);
  EXPECT_EQ(count, 42u);
  EXPECT_EQ(items, (std::vector<std::string>{"a", "b"}));
}

TEST(ArgParserTest, DefaultsSurviveWhenOptionsAreAbsent) {
  bool flag_value = false;
  std::string name = "default";
  ArgParser parser("prog");
  parser.flag("--flag", &flag_value, "").option("--name", &name, "S", "");
  Argv argv({});
  std::string error;
  ASSERT_TRUE(parser.parse(argv.argc(), argv.argv(), &error)) << error;
  EXPECT_FALSE(flag_value);
  EXPECT_EQ(name, "default");
}

TEST(ArgParserTest, RejectsUnknownArgument) {
  ArgParser parser("prog");
  Argv argv({"--nope"});
  std::string error;
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv(), &error));
  EXPECT_NE(error.find("--nope"), std::string::npos);
}

TEST(ArgParserTest, RejectsMissingValue) {
  std::string name;
  ArgParser parser("prog");
  parser.option("--name", &name, "S", "");
  Argv argv({"--name"});
  std::string error;
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv(), &error));
  EXPECT_NE(error.find("needs a value"), std::string::npos);
}

TEST(ArgParserTest, RejectsMalformedNumber) {
  double ratio = 0.0;
  ArgParser parser("prog");
  parser.option("--ratio", &ratio, "F", "");
  Argv argv({"--ratio", "fast"});
  std::string error;
  EXPECT_FALSE(parser.parse(argv.argc(), argv.argv(), &error));
  EXPECT_NE(error.find("--ratio"), std::string::npos);
}

TEST(ArgParserTest, RejectsCustomValueTheCallbackRefuses) {
  ArgParser parser("prog");
  parser.custom("--mode", "M", "", [](const std::string& v) {
    return v == "good";
  });
  Argv bad({"--mode", "bad"});
  std::string error;
  EXPECT_FALSE(parser.parse(bad.argc(), bad.argv(), &error));
  EXPECT_NE(error.find("--mode"), std::string::npos);

  Argv good({"--mode", "good"});
  EXPECT_TRUE(parser.parse(good.argc(), good.argv(), &error));
}

TEST(ArgParserTest, BoundedOptionsEnforceTypeRange) {
  std::uint16_t port = 0;
  std::uint32_t count = 0;
  ArgParser parser("prog");
  parser.option("--port", &port, "P", "").option("--count", &count, "N", "");

  Argv ok({"--port", "65535", "--count", "4294967295"});
  std::string error;
  ASSERT_TRUE(parser.parse(ok.argc(), ok.argv(), &error)) << error;
  EXPECT_EQ(port, 65535u);
  EXPECT_EQ(count, 4294967295u);

  Argv too_big({"--port", "65536"});
  EXPECT_FALSE(parser.parse(too_big.argc(), too_big.argv(), &error));

  Argv negative({"--port", "-1"});
  EXPECT_FALSE(parser.parse(negative.argc(), negative.argv(), &error));
}

TEST(ArgParserTest, HelpShortCircuitsRemainingArgs) {
  std::string name;
  ArgParser parser("prog");
  parser.option("--name", &name, "S", "");
  // --help stops parsing, so the bogus argument after it is never seen.
  Argv argv({"--help", "--bogus"});
  std::string error;
  EXPECT_TRUE(parser.parse(argv.argc(), argv.argv(), &error));
  EXPECT_TRUE(parser.help_requested());

  ArgParser short_form("prog");
  Argv argv2({"-h"});
  EXPECT_TRUE(short_form.parse(argv2.argc(), argv2.argv(), &error));
  EXPECT_TRUE(short_form.help_requested());
}

TEST(ParseDurationTest, UnitsSuffixesAndRejections) {
  double s = -1.0;
  EXPECT_TRUE(parse_duration_seconds("1s", &s));
  EXPECT_DOUBLE_EQ(s, 1.0);
  EXPECT_TRUE(parse_duration_seconds("250ms", &s));
  EXPECT_DOUBLE_EQ(s, 0.25);
  EXPECT_TRUE(parse_duration_seconds("2m", &s));
  EXPECT_DOUBLE_EQ(s, 120.0);
  EXPECT_TRUE(parse_duration_seconds("0.5", &s));  // bare number = seconds
  EXPECT_DOUBLE_EQ(s, 0.5);
  EXPECT_TRUE(parse_duration_seconds("0s", &s));
  EXPECT_DOUBLE_EQ(s, 0.0);

  EXPECT_FALSE(parse_duration_seconds("", &s));
  EXPECT_FALSE(parse_duration_seconds("s", &s));
  EXPECT_FALSE(parse_duration_seconds("ms", &s));
  EXPECT_FALSE(parse_duration_seconds("-1s", &s));
  EXPECT_FALSE(parse_duration_seconds("1h", &s));  // no hours unit
  EXPECT_FALSE(parse_duration_seconds("1.5xs", &s));
  EXPECT_FALSE(parse_duration_seconds("nan", &s));
  EXPECT_FALSE(parse_duration_seconds("inf", &s));
  EXPECT_FALSE(parse_duration_seconds("1e400", &s));  // overflows to inf
  EXPECT_FALSE(parse_duration_seconds("1e308m", &s));  // inf once scaled
}

TEST(ArgParserTest, DurationOptionParsesSuffixedValues) {
  double interval = 0.0;
  ArgParser parser("prog");
  parser.duration("--ts-interval", &interval, "DUR", "");
  Argv ok({"--ts-interval", "250ms"});
  std::string error;
  ASSERT_TRUE(parser.parse(ok.argc(), ok.argv(), &error)) << error;
  EXPECT_DOUBLE_EQ(interval, 0.25);

  Argv bad({"--ts-interval", "-2s"});
  EXPECT_FALSE(parser.parse(bad.argc(), bad.argv(), &error));
  EXPECT_NE(error.find("--ts-interval"), std::string::npos);
}

TEST(ArgParserTest, UsageListsEveryOptionAndHelp) {
  bool b = false;
  std::string s;
  ArgParser parser("prog", "A one-line summary.");
  parser.flag("--fast", &b, "go faster").option("--out", &s, "FILE", "where");
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("usage: prog"), std::string::npos);
  EXPECT_NE(usage.find("A one-line summary."), std::string::npos);
  EXPECT_NE(usage.find("--fast"), std::string::npos);
  EXPECT_NE(usage.find("go faster"), std::string::npos);
  EXPECT_NE(usage.find("--out FILE"), std::string::npos);
  EXPECT_NE(usage.find("--help, -h"), std::string::npos);
}

}  // namespace
}  // namespace baps::util
