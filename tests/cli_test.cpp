// Tests for the flag parser and the CLI driver end-to-end (string in,
// string out — no process spawning needed).

#include <gtest/gtest.h>

#include <sstream>

#include "cli/args.hpp"
#include "cli/cli_app.hpp"
#include "common/contracts.hpp"

namespace ftmao::cli {
namespace {

// ---------------------------------------------------------------- parser

ArgParser test_parser() {
  return ArgParser({
      {"count", "a number", "3", false},
      {"name", "a string", "default", false},
      {"verbose", "a boolean", "false", true},
  });
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({}).has_value());
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(ArgParser, SpaceAndEqualsSyntax) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--count", "7", "--name=zed"}).has_value());
  EXPECT_EQ(p.get_int("count"), 7);
  EXPECT_EQ(p.get("name"), "zed");
}

TEST(ArgParser, BooleanPresenceMeansTrue) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--verbose"}).has_value());
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(ArgParser, BooleanExplicitValue) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--verbose", "false"}).has_value());
  EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(ArgParser, UnknownFlagRejected) {
  ArgParser p = test_parser();
  const auto err = p.parse({"--nope", "1"});
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--nope"), std::string::npos);
}

TEST(ArgParser, MissingValueRejected) {
  ArgParser p = test_parser();
  EXPECT_TRUE(p.parse({"--count"}).has_value());
}

TEST(ArgParser, DuplicateFlagRejected) {
  ArgParser p = test_parser();
  EXPECT_TRUE(p.parse({"--count", "1", "--count", "2"}).has_value());
}

TEST(ArgParser, PositionalRejected) {
  ArgParser p = test_parser();
  EXPECT_TRUE(p.parse({"stray"}).has_value());
}

TEST(ArgParser, BadNumberThrowsOnAccess) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--count", "soon"}).has_value());
  EXPECT_THROW(p.get_int("count"), ContractViolation);
  EXPECT_THROW(p.get_double("count"), ContractViolation);
}

TEST(ArgParser, CountsRejectNegativeFractionalAndOverflowingValues) {
  ArgParser p = test_parser();
  ASSERT_FALSE(p.parse({"--count", "7"}).has_value());
  EXPECT_EQ(p.get_size("count"), 7u);
  EXPECT_EQ(p.get_size("count", 7), 7u);
  EXPECT_THROW(p.get_size("count", 6), ContractViolation);
  for (const char* bad : {"-1", "+3", " 3", "1.5", "3x", "", "1e3",
                          "18446744073709551616"}) {
    ASSERT_FALSE(p.parse({"--count=" + std::string(bad)}).has_value()) << bad;
    try {
      p.get_size("count");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArgParser, HasDistinguishesExplicit) {
  ArgParser p = test_parser();
  EXPECT_FALSE(p.parse({"--count", "3"}).has_value());
  EXPECT_TRUE(p.has("count"));
  EXPECT_FALSE(p.has("name"));
}

TEST(ArgParser, HelpTextListsFlags) {
  const std::string help = test_parser().help_text();
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
}

// ------------------------------------------------------------------- CLI

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

TEST(Cli, HelpExitsZero) {
  std::string out;
  EXPECT_EQ(run({"--help"}, &out), 0);
  EXPECT_NE(out.find("--algorithm"), std::string::npos);
}

TEST(Cli, DefaultRunPrintsSummary) {
  std::string out;
  EXPECT_EQ(run({"--rounds", "200"}, &out), 0);
  EXPECT_NE(out.find("final disagreement"), std::string::npos);
  EXPECT_NE(out.find("valid optima set Y"), std::string::npos);
}

TEST(Cli, CsvModeEmitsHeaderAndRows) {
  std::string out;
  EXPECT_EQ(run({"--rounds", "50", "--csv"}, &out), 0);
  EXPECT_EQ(out.rfind("t,disagreement,max_dist_to_y,max_projection_error", 0), 0u);
  // 50 rounds + initial row + header.
  EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')), 52);
}

TEST(Cli, UnknownFlagFailsWithUsage) {
  std::string err;
  EXPECT_EQ(run({"--bogus", "1"}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage"), std::string::npos);
}

TEST(Cli, BadAlgorithmFails) {
  std::string err;
  EXPECT_EQ(run({"--algorithm", "magic"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown algorithm"), std::string::npos);
}

TEST(Cli, BadResilienceFails) {
  std::string err;
  EXPECT_EQ(run({"--n", "6", "--f", "2"}, nullptr, &err), 1);
}

TEST(Cli, NegativeCountFlagFailsBeforeRunning) {
  std::string out;
  std::string err;
  EXPECT_EQ(run({"--rounds", "-1"}, &out, &err), 1);
  EXPECT_NE(err.find("--rounds"), std::string::npos) << err;
  EXPECT_TRUE(out.empty()) << out;
}

TEST(Cli, DgdAndLocalRun) {
  EXPECT_EQ(run({"--algorithm", "dgd", "--rounds", "100"}), 0);
  EXPECT_EQ(run({"--algorithm", "local", "--rounds", "100"}), 0);
}

TEST(Cli, AsyncRunsWithValidResilience) {
  std::string out;
  EXPECT_EQ(run({"--algorithm", "async", "--n", "6", "--f", "1", "--rounds",
                 "100"},
                &out),
            0);
  EXPECT_NE(out.find("virtual time"), std::string::npos);
}

TEST(Cli, ConstraintFlagsMustComeTogether) {
  std::string err;
  EXPECT_EQ(run({"--constraint-lo", "-1"}, nullptr, &err), 1);
  EXPECT_NE(err.find("together"), std::string::npos);
}

TEST(Cli, ConstrainedRunRespectsInterval) {
  std::string out;
  EXPECT_EQ(run({"--rounds", "500", "--constraint-lo", "-0.5",
                 "--constraint-hi", "0.5"},
                &out),
            0);
  EXPECT_EQ(run({"--rounds", "200", "--audit"}, &out), 0);
  EXPECT_NE(out.find("witness audits"), std::string::npos);
}

TEST(Cli, SaveAndLoadScenarioRoundTrip) {
  const std::string path = "/tmp/ftmao_cli_scenario_test.txt";
  std::string out;
  EXPECT_EQ(run({"--rounds", "150", "--attack", "pull", "--target", "-20",
                 "--save-scenario", path},
                &out),
            0);
  EXPECT_NE(out.find("scenario written"), std::string::npos);

  std::string direct, via_file;
  EXPECT_EQ(run({"--rounds", "150", "--attack", "pull", "--target", "-20"},
                &direct),
            0);
  EXPECT_EQ(run({"--scenario", path}, &via_file), 0);
  EXPECT_EQ(direct, via_file);
}

TEST(Cli, MissingScenarioFileFails) {
  std::string err;
  EXPECT_EQ(run({"--scenario", "/nonexistent/nope.txt"}, nullptr, &err), 1);
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(Cli, GraphAlgorithmReportsRobustness) {
  std::string out;
  EXPECT_EQ(run({"--algorithm", "graph", "--topology", "ring:2", "--n", "9",
                 "--f", "1", "--rounds", "500"},
                &out),
            0);
  EXPECT_NE(out.find("robustness r"), std::string::npos);
  EXPECT_NE(out.find("min in-degree"), std::string::npos);
}

TEST(Cli, GraphBadTopologyFails) {
  std::string err;
  EXPECT_EQ(run({"--algorithm", "graph", "--topology", "moebius"}, nullptr,
                &err),
            1);
  EXPECT_NE(err.find("unknown topology"), std::string::npos);
}

TEST(Cli, CrashAlgorithmRuns) {
  std::string out;
  EXPECT_EQ(run({"--algorithm", "crash", "--n", "5", "--f", "1", "--attack",
                 "none", "--crash-at", "4@100", "--rounds", "1000"},
                &out),
            0);
  EXPECT_NE(out.find("survivors"), std::string::npos);
  EXPECT_NE(out.find("(17)-optimum interval"), std::string::npos);
}

TEST(Cli, CrashBadSpecFails) {
  std::string err;
  EXPECT_EQ(run({"--algorithm", "crash", "--crash-at", "4:100"}, nullptr, &err),
            1);
}

TEST(Cli, DeterministicOutputPerSeed) {
  std::string a, b, c;
  run({"--rounds", "200", "--attack", "noise", "--seed", "9"}, &a);
  run({"--rounds", "200", "--attack", "noise", "--seed", "9"}, &b);
  run({"--rounds", "200", "--attack", "noise", "--seed", "10"}, &c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace ftmao::cli
