/// End-to-end tests for the built-in policy_sweep scenario: one spec fans
/// out to N scheduling-policy variants over the same workload and tabulates
/// makespan / wait / energy / peak power per variant.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "json/json.hpp"
#include "scenario/scenario_registry.hpp"

namespace exadigit {
namespace {

ScenarioRegistry& registry() { return ScenarioRegistry::instance(); }

ScenarioSpec sweep_spec(const std::string& policies_json) {
  ScenarioSpec spec;
  spec.name = "sweep";
  spec.type = "policy_sweep";
  spec.seed = 7;
  spec.horizon_hours = 0.25;
  Json params;
  params["policies"] = Json::parse(policies_json);
  spec.params = std::move(params);
  return spec;
}

TEST(PolicySweepScenarioTest, FansOutEveryVariantOverTheSameWorkload) {
  const ScenarioSpec spec = sweep_spec(R"([
    "fcfs", "sjf", "easy_backfill",
    {"policy": "priority", "params": {"aging_weight": 0.01}},
    {"policy": "power_capped", "params": {"cap_mw": 20.0}, "label": "capped20"}
  ])");
  const ScenarioResult result = registry().run(spec);
  EXPECT_EQ(result.metric("policies"), 5.0);
  const double submitted = result.metric("jobs_submitted");
  EXPECT_GT(submitted, 0.0);
  for (const std::string label : {"fcfs", "sjf", "easy_backfill", "priority", "capped20"}) {
    EXPECT_TRUE(result.has_metric(label + ".jobs_completed")) << label;
    EXPECT_TRUE(result.has_metric(label + ".makespan_s")) << label;
    EXPECT_TRUE(result.has_metric(label + ".avg_wait_s")) << label;
    EXPECT_TRUE(result.has_metric(label + ".total_energy_mwh")) << label;
    EXPECT_TRUE(result.has_metric(label + ".max_power_mw")) << label;
    EXPECT_GT(result.metric(label + ".total_energy_mwh"), 0.0) << label;
    // Every variant exports its power trajectory as a named channel.
    const auto it = result.channels.find(label + ".power_mw");
    ASSERT_NE(it, result.channels.end()) << label;
    EXPECT_FALSE(it->second.empty()) << label;
    // Same workload: no variant can complete more jobs than were submitted.
    EXPECT_LE(result.metric(label + ".jobs_completed"), submitted) << label;
    // The summary table names every variant.
    EXPECT_NE(result.text.find(label), std::string::npos) << label;
  }
}

TEST(PolicySweepScenarioTest, DeterministicAcrossRuns) {
  const ScenarioSpec spec = sweep_spec(R"(["fcfs", "sjf"])");
  const ScenarioResult a = registry().run(spec);
  const ScenarioResult b = registry().run(spec);
  ASSERT_EQ(a.summary.size(), b.summary.size());
  for (std::size_t i = 0; i < a.summary.size(); ++i) {
    EXPECT_EQ(a.summary[i].name, b.summary[i].name);
    EXPECT_EQ(a.summary[i].value, b.summary[i].value);  // bit-identical
  }
  EXPECT_EQ(a.text, b.text);
}

TEST(PolicySweepScenarioTest, CapBindsInsideTheSweep) {
  // Frontier idles at ~7.24 MW and this workload peaks ~8.5 MW under
  // fcfs, so an 8 MW cap genuinely binds while staying feasible.
  const ScenarioSpec spec = sweep_spec(R"([
    "fcfs", {"policy": "power_capped", "params": {"cap_mw": 8.0}, "label": "capped"}
  ])");
  const ScenarioResult result = registry().run(spec);
  EXPECT_LE(result.metric("capped.max_power_mw"), 8.0);
  EXPECT_GT(result.metric("fcfs.max_power_mw"), result.metric("capped.max_power_mw"));
}

TEST(PolicySweepScenarioTest, RejectsMalformedVariantLists) {
  // Missing params.policies entirely.
  ScenarioSpec bare;
  bare.type = "policy_sweep";
  bare.horizon_hours = 0.1;
  EXPECT_THROW(registry().run(bare), ConfigError);
  // Unknown policy name.
  EXPECT_THROW(registry().run(sweep_spec(R"(["lottery"])")), ConfigError);
  // Duplicate labels (two bare fcfs entries).
  EXPECT_THROW(registry().run(sweep_spec(R"(["fcfs", "fcfs"])")), ConfigError);
  // Unknown entry field.
  EXPECT_THROW(registry().run(sweep_spec(R"([{"policy": "fcfs", "nice": 1}])")), ConfigError);
  // Empty list.
  EXPECT_THROW(registry().run(sweep_spec(R"([])")), ConfigError);
}

TEST(PolicySweepScenarioTest, SimulateScenarioAcceptsPolicyParams) {
  ScenarioSpec spec;
  spec.name = "sim";
  spec.type = "simulate";
  spec.seed = 5;
  spec.horizon_hours = 0.1;
  // The policy is a scheduler.policy config delta.
  spec.config_delta["scheduler"]["policy"] = Json(std::string("sjf"));
  const ScenarioResult result = registry().run(spec);
  // Short horizon: jobs may not finish, but the run must execute and
  // report through the requested policy.
  EXPECT_TRUE(result.has_metric("jobs_completed"));
  EXPECT_GT(result.metric("total_energy_mwh"), 0.0);

  spec.config_delta["scheduler"]["policy"] = Json(std::string("nope"));
  EXPECT_THROW(registry().run(spec), ConfigError);
  // The removed simulate param is rejected, not ignored.
  spec.config_delta = Json();
  spec.params["policy"] = Json(std::string("sjf"));
  EXPECT_THROW(registry().run(spec), ConfigError);
}

}  // namespace
}  // namespace exadigit
