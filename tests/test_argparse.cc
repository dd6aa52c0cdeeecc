// Tests for harness::ArgParser, the shared CLI surface for tools/.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/argparse.h"

namespace l96 {
namespace {

using harness::ArgParser;
using harness::CommonCliArgs;

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(ArgParseTest, FlagsOptionsAndPositionalsInterleave) {
  ArgParser p("demo", "demo tool");
  bool chaos = false;
  std::uint64_t count = 5;
  double rate = 1.0;
  std::string mode = "tcp";
  std::uint64_t conns = 8;
  p.add_flag("chaos", "enable chaos", &chaos);
  p.add_option("count", "N", "packet count", &count);
  p.add_option("rate", "X", "zipf exponent", &rate);
  p.add_positional("mode", "tcp|rpc", [&](const std::string& v) {
    if (v != "tcp" && v != "rpc") return false;
    mode = v;
    return true;
  });
  p.add_positional("conns", "connections", [&](const std::string& v) {
    conns = std::stoull(v);
    return true;
  });

  std::vector<std::string> args = {"demo", "rpc",    "--chaos", "--count",
                                   "42",   "--rate", "1.5",     "16"};
  auto argv = argv_of(args);
  std::ostringstream err;
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_TRUE(chaos);
  EXPECT_EQ(count, 42u);
  EXPECT_DOUBLE_EQ(rate, 1.5);
  EXPECT_EQ(mode, "rpc");
  EXPECT_EQ(conns, 16u);
  EXPECT_TRUE(err.str().empty());
}

TEST(ArgParseTest, DefaultsSurviveEmptyArgv) {
  ArgParser p("demo", "demo tool");
  std::uint64_t count = 7;
  p.add_option("count", "N", "count", &count);
  std::vector<std::string> args = {"demo"};
  auto argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(count, 7u);
}

TEST(ArgParseTest, UnknownFlagFailsWithUsage) {
  ArgParser p("demo", "demo tool");
  bool x = false;
  p.add_flag("x", "an x", &x);
  std::vector<std::string> args = {"demo", "--bogus"};
  auto argv = argv_of(args);
  std::ostringstream err;
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_FALSE(p.help_shown());
  EXPECT_NE(err.str().find("unknown flag '--bogus'"), std::string::npos);
  EXPECT_NE(err.str().find("usage: demo"), std::string::npos);
}

TEST(ArgParseTest, MissingAndInvalidValuesFail) {
  std::uint64_t n = 0;
  {
    ArgParser p("demo", "demo tool");
    p.add_option("n", "N", "a number", &n);
    std::vector<std::string> args = {"demo", "--n"};
    auto argv = argv_of(args);
    std::ostringstream err;
    EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
    EXPECT_NE(err.str().find("needs a value"), std::string::npos);
  }
  {
    ArgParser p("demo", "demo tool");
    p.add_option("n", "N", "a number", &n);
    std::vector<std::string> args = {"demo", "--n", "12x"};
    auto argv = argv_of(args);
    std::ostringstream err;
    EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
    EXPECT_NE(err.str().find("invalid value '12x'"), std::string::npos);
  }
  {
    ArgParser p("demo", "demo tool");
    p.add_option("n", "N", "a number", &n);
    std::vector<std::string> args = {"demo", "--n", "-3"};
    auto argv = argv_of(args);
    std::ostringstream err;
    EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  }
}

// The whole-token parses every tool's positional and custom-option lambda
// goes through: a trailing token, a non-number or an empty token fails and
// leaves the target alone.
TEST(ArgParseTest, WholeTokenNumberParsesRejectMalformedTokens) {
  std::uint64_t u = 7;
  for (const char* bad :
       {"8x", "abc", "", "-1", "1.5", "18446744073709551616"}) {
    EXPECT_FALSE(harness::parse_unsigned(bad, &u)) << bad;
  }
  EXPECT_EQ(u, 7u);
  EXPECT_TRUE(harness::parse_unsigned("128", &u));
  EXPECT_EQ(u, 128u);

  std::uint32_t narrow = 3;
  EXPECT_FALSE(harness::parse_unsigned("4294967296", &narrow));
  EXPECT_TRUE(harness::parse_unsigned("4294967295", &narrow));
  EXPECT_EQ(narrow, 4294967295u);

  double d = 1.1;
  for (const char* bad : {"abc", "1.2x", ""}) {
    EXPECT_FALSE(harness::parse_double(bad, &d)) << bad;
  }
  EXPECT_EQ(d, 1.1);
  EXPECT_TRUE(harness::parse_double("0.5", &d));
  EXPECT_EQ(d, 0.5);
}

TEST(ArgParseTest, ExcessPositionalFails) {
  ArgParser p("demo", "demo tool");
  std::vector<std::string> args = {"demo", "stray"};
  auto argv = argv_of(args);
  std::ostringstream err;
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_NE(err.str().find("unexpected argument 'stray'"), std::string::npos);
}

TEST(ArgParseTest, RejectedPositionalNamesIt) {
  ArgParser p("demo", "demo tool");
  p.add_positional("mode", "tcp|rpc",
                   [](const std::string& v) { return v == "tcp"; });
  std::vector<std::string> args = {"demo", "udp"};
  auto argv = argv_of(args);
  std::ostringstream err;
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_NE(err.str().find("for <mode>"), std::string::npos);
}

TEST(ArgParseTest, HelpListsEverythingAndSetsHelpShown) {
  ArgParser p("demo", "a demo tool for tests");
  bool chaos = false;
  std::uint64_t count = 0;
  p.add_flag("chaos", "enable chaos", &chaos);
  p.add_option("count", "N", "packet count", &count);
  p.add_positional("mode", "tcp|rpc", [](const std::string&) { return true; });
  const std::string h = p.help();
  EXPECT_NE(h.find("a demo tool for tests"), std::string::npos);
  EXPECT_NE(h.find("--chaos"), std::string::npos);
  EXPECT_NE(h.find("--count N"), std::string::npos);
  EXPECT_NE(h.find("mode"), std::string::npos);
  EXPECT_NE(h.find("--help"), std::string::npos);

  std::vector<std::string> args = {"demo", "--help"};
  auto argv = argv_of(args);
  std::ostringstream err;
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data(), err));
  EXPECT_TRUE(p.help_shown());
  EXPECT_TRUE(err.str().empty());
}

TEST(ArgParseTest, CommonCliArgsRegisterUniformSurface) {
  ArgParser p("demo", "demo tool");
  CommonCliArgs common;
  common.add_to(p);
  std::vector<std::string> args = {"demo", "--seed",    "99", "--workers",
                                   "3",    "--json",    "--out",
                                   "bench/out/x.json"};
  auto argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(common.seed, 99u);
  EXPECT_EQ(common.workers, 3u);
  EXPECT_TRUE(common.json);
  EXPECT_EQ(common.out, "bench/out/x.json");
}

}  // namespace
}  // namespace l96
