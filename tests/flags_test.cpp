// Pins the bench-option flag contract: an unknown `--flag` is rejected
// with exit code 2 and a stderr message naming the offending flag (it
// used to abort with an uncaught std::invalid_argument), while declared
// extra flags and the common set keep parsing. The underlying
// common::Flags throwing behavior is pinned by common_test; this suite
// covers the eval::BenchOptions exit-code layer every scenario goes
// through, and the ranged integer getter the serving daemon validates
// its flags with.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/flags.h"
#include "eval/bench_options.h"

namespace poiprivacy::eval {
namespace {

TEST(BenchOptionsDeathTest, UnknownFlagExitsWithCode2NamingTheFlag) {
  const char* argv[] = {"prog", "--bogus", "7"};
  EXPECT_EXIT(BenchOptions(3, argv), testing::ExitedWithCode(2),
              "unknown flag: --bogus");
}

TEST(BenchOptionsDeathTest, UndeclaredExtraFlagExitsWithCode2) {
  // `--r` is only legal for scenarios that declare it as an extra flag.
  const char* argv[] = {"prog", "--r", "2.5"};
  EXPECT_EXIT(BenchOptions(3, argv), testing::ExitedWithCode(2),
              "unknown flag: --r");
}

TEST(BenchOptionsDeathTest, UnknownFlagErrorIncludesUsage) {
  const char* argv[] = {"prog", "--typo"};
  EXPECT_EXIT(BenchOptions(2, argv), testing::ExitedWithCode(2),
              "usage: prog");
}

TEST(BenchOptions, DeclaredExtraFlagParses) {
  const char* argv[] = {"prog", "--r", "2.5", "--seed", "7"};
  const BenchOptions options(5, argv, {"r"});
  EXPECT_EQ(options.flags.get("r", 0.0), 2.5);
  EXPECT_EQ(options.seed, 7u);
}

TEST(BenchOptions, CommonFlagsKeepTheirDefaults) {
  const char* argv[] = {"prog"};
  const BenchOptions options(1, argv);
  EXPECT_EQ(options.seed, 42u);
  EXPECT_EQ(options.locations, 250u);
  EXPECT_FALSE(options.full);
}

TEST(FlagsInRange, InRangeValuesParse) {
  const char* argv[] = {"prog", "--port", "65535", "--workers=1"};
  const common::Flags flags(4, argv, {"port", "workers"});
  EXPECT_EQ(flags.get_in_range("port", 0, 0, 65535), 65535);
  EXPECT_EQ(flags.get_in_range("workers", 4, 1, 1024), 1);
}

TEST(FlagsInRange, AbsentFlagReturnsFallback) {
  const char* argv[] = {"prog"};
  const common::Flags flags(1, argv, {"workers"});
  EXPECT_EQ(flags.get_in_range("workers", 4, 1, 1024), 4);
}

// Both bounds are checked, and the message names the flag and its range.
TEST(FlagsInRange, OutOfRangeThrowsNamingTheFlag) {
  const char* argv[] = {"prog", "--workers", "-1", "--port", "70000",
                        "--max-frames", "-3"};
  const common::Flags flags(7, argv, {"workers", "port", "max-frames"});
  try {
    flags.get_in_range("workers", 4, 1, 1024);
    FAIL() << "--workers -1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[1, 1024]"), std::string::npos);
  }
  try {
    flags.get_in_range("port", 0, 0, 65535);
    FAIL() << "--port 70000 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--port"), std::string::npos);
  }
  try {
    flags.get_in_range("max-frames", 0, 0);
    FAIL() << "--max-frames -3 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(
        std::string(e.what()).find("--max-frames must be an integer >= 0"),
        std::string::npos);
  }
}

TEST(FlagsInRange, NonIntegerThrows) {
  const char* argv[] = {"prog", "--workers", "4x", "--port", "banana"};
  const common::Flags flags(5, argv, {"workers", "port"});
  EXPECT_THROW(flags.get_in_range("workers", 4, 1, 1024),
               std::invalid_argument);
  EXPECT_THROW(flags.get_in_range("port", 0, 0, 65535),
               std::invalid_argument);
}

}  // namespace
}  // namespace poiprivacy::eval
