// Tests for the CLI option parser.

#include <gtest/gtest.h>

#include "tools/cli_args.h"

namespace tp::cli {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

TEST(CliArgs, ParsesSpaceAndEqualsForms) {
  std::vector<std::string> storage{"prog", "cmd", "--d", "3", "--k=8"};
  auto argv = argv_of(storage);
  Args args(static_cast<int>(argv.size()), argv.data(), 2, {"d", "k"});
  EXPECT_TRUE(args.has("d"));
  EXPECT_EQ(args.get_int("d", 0), 3);
  EXPECT_EQ(args.get_int("k", 0), 8);
  EXPECT_FALSE(args.has("t"));
  EXPECT_EQ(args.get_int("t", 7), 7);
  EXPECT_EQ(args.get("missing", "x"), "x");
}

TEST(CliArgs, CollectsPositionals) {
  std::vector<std::string> storage{"prog", "cmd", "pos1", "--d", "2", "pos2"};
  auto argv = argv_of(storage);
  Args args(static_cast<int>(argv.size()), argv.data(), 2, {"d"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(CliArgs, RejectsUnknownOptions) {
  std::vector<std::string> storage{"prog", "cmd", "--bogus", "1"};
  auto argv = argv_of(storage);
  EXPECT_THROW(Args(static_cast<int>(argv.size()), argv.data(), 2, {"d"}),
               Error);
}

TEST(CliArgs, TrailingUnknownOptionIsUnknownNotMissingAValue) {
  // The name is checked before a value is looked for: a typo as the last
  // token must not read as a known option missing its value.
  std::vector<std::string> storage{"prog", "cmd", "--d", "3", "--bogus"};
  auto argv = argv_of(storage);
  try {
    Args(static_cast<int>(argv.size()), argv.data(), 2, {"d"});
    FAIL() << "expected a UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "unknown option --bogus");
  }
}

TEST(CliArgs, RejectsMissingValue) {
  std::vector<std::string> storage{"prog", "cmd", "--d"};
  auto argv = argv_of(storage);
  EXPECT_THROW(Args(static_cast<int>(argv.size()), argv.data(), 2, {"d"}),
               Error);
}

TEST(CliArgs, EqualsFormWithStringValue) {
  std::vector<std::string> storage{"prog", "cmd", "--placement=linear:2"};
  auto argv = argv_of(storage);
  Args args(static_cast<int>(argv.size()), argv.data(), 2, {"placement"});
  EXPECT_EQ(args.get("placement"), "linear:2");
}

TEST(CliArgs, FlagsNeverConsumeTheNextToken) {
  std::vector<std::string> storage{"prog", "cmd", "--verbose", "--d", "3"};
  auto argv = argv_of(storage);
  Args args(static_cast<int>(argv.size()), argv.data(), 2, {"d"},
            {"verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_int("d", 0), 3);  // not eaten by --verbose
}

TEST(CliArgs, FlagWithEqualsValueAndBareFallback) {
  std::vector<std::string> storage{"prog", "cmd", "--top=5"};
  auto argv = argv_of(storage);
  Args args(static_cast<int>(argv.size()), argv.data(), 2, {}, {"top"});
  EXPECT_EQ(args.get_int("top", 10), 5);

  std::vector<std::string> bare_storage{"prog", "cmd", "--top"};
  auto bare_argv = argv_of(bare_storage);
  Args bare(static_cast<int>(bare_argv.size()), bare_argv.data(), 2, {},
            {"top"});
  EXPECT_TRUE(bare.has("top"));
  EXPECT_EQ(bare.get_int("top", 10), 10);  // bare flag -> fallback value
}

TEST(CliArgs, MalformedOptionsThrowUsageErrorSpecifically) {
  // The distinct exception type is what maps bad command lines to exit
  // code 2 instead of 3 — pin it, not just the Error base.
  std::vector<std::string> unknown_storage{"prog", "cmd", "--bogus", "1"};
  auto unknown_argv = argv_of(unknown_storage);
  EXPECT_THROW(Args(static_cast<int>(unknown_argv.size()),
                    unknown_argv.data(), 2, {"d"}),
               UsageError);

  std::vector<std::string> missing_storage{"prog", "cmd", "--d"};
  auto missing_argv = argv_of(missing_storage);
  EXPECT_THROW(Args(static_cast<int>(missing_argv.size()),
                    missing_argv.data(), 2, {"d"}),
               UsageError);
}

TEST(CliExitCodes, UsageErrorExitsTwo) {
  const int rc = run_guarded(0, nullptr, [](int, char**) -> int {
    throw UsageError("unknown option --bogus");
  });
  EXPECT_EQ(rc, kExitUsage);
  EXPECT_EQ(rc, 2);
}

TEST(CliExitCodes, InternalRequireFailureExitsThree) {
  const int rc = run_guarded(0, nullptr, [](int, char**) -> int {
    TP_REQUIRE(false, "simulated internal invariant failure");
    return 0;
  });
  EXPECT_EQ(rc, kExitInternal);
  EXPECT_EQ(rc, 3);
}

TEST(CliExitCodes, NormalReturnPassesThrough) {
  const int rc = run_guarded(0, nullptr, [](int, char**) { return 0; });
  EXPECT_EQ(rc, kExitOk);
}

TEST(CliArgs, BareFlagAtEndOfLine) {
  std::vector<std::string> storage{"prog", "cmd", "--measured"};
  auto argv = argv_of(storage);
  Args args(static_cast<int>(argv.size()), argv.data(), 2, {},
            {"measured"});
  EXPECT_TRUE(args.has("measured"));
}

}  // namespace
}  // namespace tp::cli
