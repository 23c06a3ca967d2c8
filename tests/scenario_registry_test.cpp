// The scenario catalog as a contract: registration is complete and
// idempotent, every scenario runs clean in smoke mode on the tiny golden
// city, and the fig02/fig05/fig11 tables reproduced through the driver
// path (`run_scenario_main`, the entry `poibench` uses) match the text
// the historical standalone executables printed. The pinned lines below were captured from a trusted run at
// seed 4242 before the scenario refactor.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "scenarios/scenarios.h"

namespace poiprivacy::bench {
namespace {

/// Runs `name` through the driver path with `args` (+ --threads 1, so
/// the goldens are independent of the host's core count) and captures
/// its stdout.
int run_scenario(const std::string& name, std::vector<std::string> args,
                 std::string* out) {
  args.insert(args.begin(), "scenario_registry_test");
  args.insert(args.end(), {"--threads", "1"});
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  testing::internal::CaptureStdout();
  const int code = run_scenario_main(name, static_cast<int>(argv.size()),
                                     argv.data());
  *out = testing::internal::GetCapturedStdout();
  return code;
}

TEST(ScenarioRegistry, RegistrationIsCompleteAndIdempotent) {
  register_all_scenarios();
  register_all_scenarios();  // second call must not duplicate anything
  const std::vector<std::string> expected{
      "fig02_sanitize_accuracy", "fig03_sanitization",
      "fig04_geoind",            "fig05_kcloak",
      "fig06_finegrained_cdf",   "fig07_aux_anchors",
      "fig08_trajectory",        "fig09_10_nonprivate_defense",
      "fig11_12_dp_defense",     "ablation_dp_noise",
      "ablation_recovery_models", "ablation_regressors",
      "ablation_robust_attack",  "ext_category_defense",
      "ext_chain_attack",        "uniqueness_analysis",
      "micro_core",              "service_throughput",
      "mia_raw",                 "mia_dp_sweep",
      "mia_priors",              "linkage_100k",
      "stream_utility"};
  const auto& all = eval::ScenarioRegistry::instance().all();
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
    EXPECT_FALSE(all[i].description.empty()) << expected[i];
    EXPECT_FALSE(all[i].smoke_args.empty()) << expected[i];
    EXPECT_TRUE(static_cast<bool>(all[i].run)) << expected[i];
    EXPECT_EQ(eval::ScenarioRegistry::instance().find(expected[i]), &all[i]);
  }
  EXPECT_EQ(eval::ScenarioRegistry::instance().find("no_such_scenario"),
            nullptr);
}

TEST(ScenarioRegistryDeathTest, DuplicateRegistrationAbortsWithClearMessage) {
  eval::ScenarioRegistry registry;
  eval::Scenario scenario;
  scenario.name = "dup";
  scenario.run = [](const eval::BenchOptions&) { return 0; };
  registry.add(scenario);
  EXPECT_DEATH(registry.add(scenario),
               "fatal: duplicate scenario registration: dup");
}

TEST(ScenarioRegistry, RegistrationWithoutRunFunctionThrows) {
  eval::ScenarioRegistry registry;
  eval::Scenario no_run;
  no_run.name = "no_run";
  EXPECT_THROW(registry.add(no_run), std::invalid_argument);
}

TEST(ScenarioRegistry, UnknownNameReturns2) {
  register_all_scenarios();
  std::string out;
  EXPECT_EQ(run_scenario("no_such_scenario", {}, &out), 2);
}

// A value a getter rejects, whether a common flag or a scenario's own,
// returns 2 with the message instead of escaping as an exception.
TEST(ScenarioRegistry, MalformedFlagValueReturns2) {
  register_all_scenarios();
  std::string out;
  EXPECT_EQ(run_scenario("fig04_geoind", {"--seed", "4x"}, &out), 2);
  EXPECT_EQ(run_scenario("service_throughput", {"--users", "5x"}, &out), 2);
  EXPECT_TRUE(out.empty());
}

TEST(ScenarioRegistry, EveryScenarioRunsCleanInSmokeMode) {
  register_all_scenarios();
  for (const eval::Scenario& scenario :
       eval::ScenarioRegistry::instance().all()) {
    SCOPED_TRACE(scenario.name);
    std::string out;
    EXPECT_EQ(run_scenario(scenario.name, scenario.smoke_args, &out), 0);
    EXPECT_FALSE(out.empty());
  }
}

TEST(ScenarioRegistry, Fig02GoldenTableUnchangedThroughDriver) {
  register_all_scenarios();
  std::string out;
  ASSERT_EQ(run_scenario("fig02_sanitize_accuracy",
                         {"--locations", "12", "--types", "2", "--train",
                          "40", "--valid", "20", "--seed", "4242"},
                         &out),
            0);
  EXPECT_NE(out.find("seed=4242 locations=12 threads=1"), std::string::npos);
  EXPECT_NE(out.find("2.0   0.950          0.071   0.900  2"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("4.0   0.900          0.141   0.800  2"),
            std::string::npos)
      << out;
}

TEST(ScenarioRegistry, Fig05GoldenTableUnchangedThroughDriver) {
  register_all_scenarios();
  std::string out;
  ASSERT_EQ(run_scenario("fig05_kcloak",
                         {"--locations", "10", "--users", "500", "--seed",
                          "4242"},
                         &out),
            0);
  EXPECT_NE(out.find("== Fig. 5 — BJ:T-drive =="), std::string::npos);
  EXPECT_NE(out.find("none  0.100    0.200    0.500    0.700"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("50    0.000    0.000    0.100    0.200"),
            std::string::npos)
      << out;
}

TEST(ScenarioRegistry, Fig11GoldenTableUnchangedThroughDriver) {
  register_all_scenarios();
  std::string out;
  ASSERT_EQ(run_scenario("fig11_12_dp_defense",
                         {"--locations", "6", "--users", "400", "--seed",
                          "4242"},
                         &out),
            0);
  EXPECT_NE(out.find("(w/o protection: 0.500)"), std::string::npos) << out;
  EXPECT_NE(out.find("0.05        0.215  0.310  0.398  0.378  0.378"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace poiprivacy::bench
