// iolint regression tests: the static analyzer's self-test (each check
// fires on the reconstructed DESIGN.md §9.2-3 / §10.4 / §11.4 ledger
// bugs, stays silent on the fixed forms, allowlist mechanics) and the
// repo-wide lint itself (src/ + tests/ carry zero un-allowlisted
// findings).  Both shell out to the python tool; when no python3 is on
// PATH the tests skip rather than fail.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_tool(const std::string& args) {
  const std::string cmd =
      "cd \"" BIO_SOURCE_DIR "\" && python3 " + args + " 2>&1";
  RunResult res;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return res;
  std::array<char, 4096> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) res.output += buf.data();
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

bool have_python() {
  const int status = std::system("python3 -c 'pass' >/dev/null 2>&1");
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(IolintTest, SelftestLedgerFixturesAndAllowlist) {
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res = run_tool("tools/iolint/selftest.py");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("iolint selftest: OK"), std::string::npos)
      << res.output;
}

TEST(IolintTest, RepoIsCleanUnderCiMode) {
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH";
  const RunResult res = run_tool("tools/iolint/iolint.py --ci");
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

}  // namespace
