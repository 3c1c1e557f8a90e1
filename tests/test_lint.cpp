// Drives the dhtidx_lint binary (tools/dhtidx_lint.cpp) end to end: every
// fixture under tests/lint_fixtures is flagged with its check's name,
// justified suppressions disarm, comment/string contents never trip a check,
// and the real tree — with its documented suppressions — lints clean.
//
// The binary path, fixture directory and repo root arrive as compile
// definitions from tests/CMakeLists.txt.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

RunResult run_lint(const std::string& args) {
  const std::string command = std::string(DHTIDX_LINT_BIN) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

const std::string kFixtures = DHTIDX_LINT_FIXTURES;

/// Lints one fixture file with the fixture tree as the classification root.
RunResult lint_fixture(const std::string& rel) {
  return run_lint("--root " + kFixtures + " " + kFixtures + "/" + rel);
}

TEST(Lint, ListNamesEveryCheck) {
  const RunResult result = run_lint("--list");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* check :
       {"banned-random", "hot-path-map", "ledger-discipline", "query-by-value",
        "unguarded-mutex", "pragma-once", "lenient-number-parse", "bad-suppression"}) {
    EXPECT_NE(result.output.find(check), std::string::npos)
        << "--list is missing " << check << "\n" << result.output;
  }
}

TEST(Lint, NoInputFilesIsAUsageError) {
  EXPECT_EQ(run_lint("--root " + kFixtures).exit_code, 2);
}

struct BadFixture {
  const char* file;
  const char* check;
};

class LintBadFixture : public ::testing::TestWithParam<BadFixture> {};

TEST_P(LintBadFixture, IsFlaggedWithItsCheckName) {
  const BadFixture& fixture = GetParam();
  const RunResult result = lint_fixture(fixture.file);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  const std::string tag = std::string("[") + fixture.check + "]";
  EXPECT_NE(result.output.find(tag), std::string::npos)
      << "expected " << tag << " in:\n" << result.output;
  // Diagnostics carry a clickable file:line prefix.
  EXPECT_NE(result.output.find(std::string(fixture.file) + ":"), std::string::npos)
      << result.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllChecks, LintBadFixture,
    ::testing::Values(
        BadFixture{"src/common/bad_random.cpp", "banned-random"},
        BadFixture{"src/index/bad_map.cpp", "hot-path-map"},
        BadFixture{"src/net/bad_ledger.cpp", "ledger-discipline"},
        BadFixture{"src/index/bad_query_value.hpp", "query-by-value"},
        BadFixture{"src/sim/bad_mutex.hpp", "unguarded-mutex"},
        BadFixture{"src/sim/bad_feed_map.cpp", "hot-path-map"},
        BadFixture{"src/index/bad_pragma.hpp", "pragma-once"},
        BadFixture{"bench/bad_number_parse.cpp", "lenient-number-parse"},
        BadFixture{"src/index/suppressed_missing_justification.cpp",
                   "bad-suppression"}),
    [](const ::testing::TestParamInfo<BadFixture>& fixture) {
      // Derive from the file path: several fixtures can exercise one check
      // (hot-path-map has per-directory fixtures since PR 10).
      std::string name = fixture.param.file;
      name = name.substr(name.rfind('/') + 1);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Lint, JustifiedSuppressionDisarms) {
  const RunResult result = lint_fixture("src/index/suppressed_ok.cpp");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(Lint, UndocumentedSuppressionDoesNotDisarm) {
  // Both the meta finding and the original check must fire.
  const RunResult result =
      lint_fixture("src/index/suppressed_missing_justification.cpp");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("[bad-suppression]"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("[hot-path-map]"), std::string::npos)
      << result.output;
}

TEST(Lint, CommentsAndStringsAreNotCode) {
  // clean.cpp also embeds an allow(<unknown-check>) suppression marker in a
  // string literal; suppressions are parsed from comments only, so it must
  // not trip bad-suppression either.
  const RunResult result = lint_fixture("src/index/clean.cpp");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(Lint, MultiLineBlessedLedgerBindingIsNotFlagged) {
  // bad_ledger.cpp binds `wire` from net::active() across a line break; only
  // the unblessed `ledger` write may be reported.
  const RunResult result = lint_fixture("src/net/bad_ledger.cpp");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_EQ(result.output.find("wire"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("`ledger`"), std::string::npos) << result.output;
}

TEST(Lint, RealTreeLintsClean) {
  // The gate CI enforces: the repo's own sources, with their documented
  // suppressions, produce zero findings.
  const RunResult result =
      run_lint("--root " + std::string(DHTIDX_REPO_ROOT) + " --recurse");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(result.output.empty()) << result.output;
}

}  // namespace
