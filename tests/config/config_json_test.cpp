#include "config/config_json.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>

namespace exadigit {
namespace {

TEST(ConfigJsonTest, CurveRoundTrip) {
  const PiecewiseLinearCurve c{{0.0, 0.88}, {7500.0, 0.963}, {12500.0, 0.952}};
  const PiecewiseLinearCurve back = curve_from_json(curve_to_json(c));
  ASSERT_EQ(back.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.xs()[i], c.xs()[i]);
    EXPECT_DOUBLE_EQ(back.ys()[i], c.ys()[i]);
  }
}

TEST(ConfigJsonTest, FrontierRoundTripIsLossless) {
  const SystemConfig original = frontier_system_config();
  const Json j = system_config_to_json(original);
  const SystemConfig back = system_config_from_json(j);

  EXPECT_EQ(back.name, original.name);
  EXPECT_EQ(back.cdu_count, original.cdu_count);
  EXPECT_EQ(back.rack_count, original.rack_count);
  EXPECT_DOUBLE_EQ(back.node.gpu_peak_w, original.node.gpu_peak_w);
  EXPECT_DOUBLE_EQ(back.rack.switch_avg_w, original.rack.switch_avg_w);
  EXPECT_EQ(back.power.rectifiers_per_group, original.power.rectifiers_per_group);
  EXPECT_EQ(back.power.load_sharing, original.power.load_sharing);
  EXPECT_EQ(back.power.feed, original.power.feed);
  EXPECT_DOUBLE_EQ(back.power.dc_feed_efficiency, original.power.dc_feed_efficiency);
  EXPECT_DOUBLE_EQ(back.economics.electricity_usd_per_kwh,
                   original.economics.electricity_usd_per_kwh);
  EXPECT_DOUBLE_EQ(back.cooling.cdu.hex.ua_w_per_k, original.cooling.cdu.hex.ua_w_per_k);
  EXPECT_DOUBLE_EQ(back.cooling.primary.htws_setpoint_c,
                   original.cooling.primary.htws_setpoint_c);
  EXPECT_DOUBLE_EQ(back.cooling.ct.pump.design_head_pa,
                   original.cooling.ct.pump.design_head_pa);
  EXPECT_DOUBLE_EQ(back.cooling.ct.tower.fan_rated_w, original.cooling.ct.tower.fan_rated_w);
  EXPECT_EQ(back.scheduler.policy, original.scheduler.policy);
  EXPECT_DOUBLE_EQ(back.workload.mean_arrival_s, original.workload.mean_arrival_s);
  EXPECT_DOUBLE_EQ(back.simulation.cooling_quantum_s, original.simulation.cooling_quantum_s);
  // Efficiency curves must survive exactly (calibration data).
  for (double x : {0.0, 2500.0, 7500.0, 11500.0}) {
    EXPECT_DOUBLE_EQ(back.power.rectifier_efficiency(x),
                     original.power.rectifier_efficiency(x));
  }
}

/// Setting `section.key` to each of `values` must fail with a ConfigError
/// naming the path. The reference-path selectors are not config: tests and
/// benches pick them in C++ (RapsEngine::Options::engine,
/// CoolingPlantModel::set_hydraulics_eval), so no document can.
void expect_key_rejected(const std::string& section, const std::string& key,
                         std::initializer_list<const char*> values) {
  for (const char* value : values) {
    Json doc;
    doc[section][key] = Json(std::string(value));
    try {
      (void)system_config_from_json(doc);
      ADD_FAILURE() << section << "." << key << " = " << value << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(section + "." + key), std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigJsonTest, EngineKeyIsRejected) {
  expect_key_rejected("simulation", "engine", {"event", "tick", "warp"});
}

TEST(ConfigJsonTest, HydraulicsKeyIsRejected) {
  expect_key_rejected("cooling", "hydraulics", {"dedup", "always_solve", "sometimes"});
}

TEST(ConfigJsonTest, ThermalKeyIsRejected) {
  expect_key_rejected("cooling", "thermal", {"batched", "scalar", "vectorish"});
}

TEST(ConfigJsonTest, UnknownSimulationKeyThrows) {
  // A misspelt or removed key must fail loudly instead of silently running
  // the default; the message lists the keys that are accepted.
  const Json removed = Json::parse(R"({"simulation": {"threads": 2}})");
  try {
    (void)system_config_from_json(removed);
    FAIL() << "expected a ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"threads\""), std::string::npos) << what;
    EXPECT_NE(what.find("tick_s"), std::string::npos) << what;
  }
  const Json known = Json::parse(R"({"simulation": {"tick_s": 1.0}})");
  EXPECT_EQ(system_config_from_json(known).simulation.tick_s, 1.0);
}

TEST(ConfigJsonTest, MultiPartitionRoundTrip) {
  const SystemConfig original = setonix_like_config();
  const SystemConfig back = system_config_from_json(system_config_to_json(original));
  ASSERT_EQ(back.partitions.size(), 2u);
  EXPECT_EQ(back.partitions[0].name, "work");
  EXPECT_EQ(back.partitions[0].node_count, original.partitions[0].node_count);
  EXPECT_EQ(back.partitions[0].node.gpus_per_node, 0);
}

TEST(ConfigJsonTest, MissingFieldsTakeFrontierDefaults) {
  const Json j = Json::parse(R"({"name": "minimal", "rack_count": 6, "cdu_count": 2})");
  const SystemConfig c = system_config_from_json(j);
  EXPECT_EQ(c.name, "minimal");
  EXPECT_EQ(c.rack_count, 6);
  EXPECT_EQ(c.cdu_count, 2);
  // Defaults inherited from Frontier.
  EXPECT_DOUBLE_EQ(c.node.gpu_peak_w, 560.0);
  EXPECT_EQ(c.rack.nodes_per_rack, 128);
}

TEST(ConfigJsonTest, SchedulerPolicyNames) {
  // Legacy names stay parseable, and the new built-ins are accepted.
  for (const char* name :
       {"fcfs", "sjf", "easy_backfill", "priority", "power_capped", "price_aware"}) {
    Json j;
    j["scheduler"]["policy"] = Json(name);
    EXPECT_NO_THROW(system_config_from_json(j));
    EXPECT_EQ(system_config_from_json(j).scheduler.policy, name);
  }
  Json bad;
  bad["scheduler"]["policy"] = Json("lottery");
  EXPECT_THROW(system_config_from_json(bad), ConfigError);
}

TEST(ConfigJsonTest, UnknownSchedulerPolicyErrorListsValidNames) {
  Json bad;
  bad["scheduler"]["policy"] = Json("lottery");
  try {
    system_config_from_json(bad);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lottery"), std::string::npos) << what;
    for (const char* name :
         {"fcfs", "sjf", "easy_backfill", "priority", "power_capped"}) {
      EXPECT_NE(what.find(name), std::string::npos) << "missing " << name << ": " << what;
    }
  }
}

TEST(ConfigJsonTest, SchedulerPolicyParamsRoundTrip) {
  SystemConfig original = frontier_system_config();
  original.scheduler.policy = "power_capped";
  original.scheduler.policy_params["cap_mw"] = Json(25.0);
  const Json j = system_config_to_json(original);
  EXPECT_TRUE(j.at("scheduler").contains("params"));
  const SystemConfig back = system_config_from_json(j);
  EXPECT_EQ(back.scheduler.policy, "power_capped");
  ASSERT_TRUE(back.scheduler.policy_params.is_object());
  EXPECT_DOUBLE_EQ(back.scheduler.policy_params.at("cap_mw").as_number(), 25.0);
  // A second round trip is byte-stable (content-addressed caching relies
  // on canonical serialization).
  EXPECT_EQ(system_config_to_json(back).dump(), j.dump());

  // No params => no "params" key (keeps legacy documents byte-identical).
  const Json plain = system_config_to_json(frontier_system_config());
  EXPECT_FALSE(plain.at("scheduler").contains("params"));
}

TEST(ConfigJsonTest, BadEnumValuesThrow) {
  Json j;
  j["power"]["feed"] = Json("ac48");
  EXPECT_THROW(system_config_from_json(j), ConfigError);
  Json j2;
  j2["power"]["load_sharing"] = Json("round_robin");
  EXPECT_THROW(system_config_from_json(j2), ConfigError);
}

TEST(ConfigJsonTest, InvalidDescriptorFailsValidation) {
  Json j;
  j["rack_count"] = Json(100);  // exceeds 25 * 3 CDU positions
  EXPECT_THROW(system_config_from_json(j), ConfigError);
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(EXADIGIT_CONFIG_GOLDEN_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The descriptor JSON is hashed into config and cache keys, so its bytes
// must not move. The golden files were written by the per-struct
// hand-written serializers the field tables replaced.
TEST(ConfigJsonTest, DescriptorsMatchGoldenFilesByteForByte) {
  EXPECT_EQ(system_config_to_json(frontier_system_config()).dump(2) + "\n",
            read_golden("frontier.json"));
  EXPECT_EQ(system_config_to_json(setonix_like_config()).dump(2) + "\n",
            read_golden("setonix_like.json"));
}

// Every descriptor key, each set to a value that differs from the Frontier
// default and from its neighbours, written out by hand so that the test
// does not depend on the field tables.
constexpr const char* kEveryField = R"({
  "name": "every-field", "cdu_count": 7, "racks_per_cdu": 5, "rack_count": 33,
  "node": {"cpus_per_node": 3, "gpus_per_node": 6, "nics_per_node": 5, "nvme_per_node": 7,
           "cpu_idle_w": 91.5, "cpu_peak_w": 281.5, "gpu_idle_w": 89.5, "gpu_peak_w": 561.5,
           "ram_avg_w": 75.5, "nic_w": 21.5, "nvme_w": 16.5},
  "rack": {"chassis_per_rack": 9, "rectifiers_per_rack": 36, "blades_per_rack": 66,
           "nodes_per_rack": 132, "sivocs_per_rack": 130, "switches_per_rack": 34,
           "switch_avg_w": 251.5},
  "power": {"rectifier_efficiency": [[0, 0.81], [9000, 0.95]],
            "sivoc_efficiency": [[0, 0.82], [1, 0.97]], "rectifier_rated_w": 12600.5,
            "sivoc_rated_w": 2900.5, "rectifiers_per_group": 6, "blades_per_group": 11,
            "load_sharing": "smart_staging", "feed": "dc380", "dc_feed_efficiency": 0.991},
  "scheduler": {"policy": "power_capped", "params": {"cap_mw": 17.5}, "max_queue_depth": 44},
  "workload": {"mean_arrival_s": 56.5, "mean_nodes": 269.5, "std_nodes": 627.5,
               "mean_walltime_s": 2341.5, "std_walltime_s": 1801.5, "mean_cpu_util": 0.43,
               "std_cpu_util": 0.17, "mean_gpu_util": 0.71, "std_gpu_util": 0.23},
  "economics": {"electricity_usd_per_kwh": 0.11, "emission_lbs_per_mwh": 853.5},
  "cooling": {
    "cdu": {"pump_avg_w": 8701.5,
            "pump": {"design_flow_m3s": 0.031, "design_head_pa": 206001.5,
                     "shutoff_head_pa": 279001.5, "rated_power_w": 8702.5, "efficiency": 0.76,
                     "min_speed": 0.21},
            "secondary_volume_m3": 1.25, "secondary_design_flow_m3s": 0.0325,
            "secondary_design_dp_pa": 206002.5, "hex_ua_w_per_k": 300001.5,
            "supply_setpoint_c": 31.5, "loop_dp_setpoint_pa": 175001.5,
            "rack_branch_dp_pa": 113001.5},
    "primary": {"pump_count": 5,
                "pump": {"design_flow_m3s": 0.091, "design_head_pa": 310002.5,
                         "shutoff_head_pa": 400001.5, "rated_power_w": 40001.5,
                         "efficiency": 0.77, "min_speed": 0.22},
                "ehx_count": 6, "ehx_ua_w_per_k": 2000001.5, "volume_m3": 41.5,
                "design_flow_m3s": 0.355, "htws_setpoint_c": 27.5, "dp_setpoint_pa": 310001.5,
                "stage_up_speed": 0.93, "stage_down_speed": 0.46, "stage_min_interval_s": 301.5},
    "ct": {"pump_count": 3,
           "pump": {"design_flow_m3s": 0.201, "design_head_pa": 220001.5,
                    "shutoff_head_pa": 290001.5, "rated_power_w": 60001.5, "efficiency": 0.79,
                    "min_speed": 0.23},
           "volume_m3": 91.5, "design_flow_m3s": 0.61, "header_pressure_setpoint_pa": 145001.5,
           "stage_up_speed": 0.94, "stage_down_speed": 0.47, "stage_min_interval_s": 302.5,
           "ct_stage_temp_band_k": 1.6, "ct_stage_min_interval_s": 601.5,
           "tower": {"tower_count": 4, "cells_per_tower": 2, "fan_rated_w": 37001.5,
                     "design_approach_k": 4.5, "effectiveness": [[0, 0.1], [1, 0.7]]}},
    "cooling_efficiency": 0.944, "staging_delay_s": 121.5, "step_s": 16.5,
    "thermal_substep_s": 3.5},
  "simulation": {"tick_s": 1.5, "cooling_quantum_s": 16.5, "trace_quantum_s": 14.5},
  "partitions": [
    {"name": "cpu", "node_count": 1000,
     "node": {"cpus_per_node": 2, "gpus_per_node": 0, "nics_per_node": 1, "nvme_per_node": 4,
              "cpu_idle_w": 92.5, "cpu_peak_w": 282.5, "gpu_idle_w": 0.5, "gpu_peak_w": 1.5,
              "ram_avg_w": 76.5, "nic_w": 22.5, "nvme_w": 17.5}},
    {"name": "gpu", "node_count": 500,
     "node": {"cpus_per_node": 4, "gpus_per_node": 8, "nics_per_node": 8, "nvme_per_node": 1,
              "cpu_idle_w": 93.5, "cpu_peak_w": 283.5, "gpu_idle_w": 90.5, "gpu_peak_w": 562.5,
              "ram_avg_w": 77.5, "nic_w": 23.5, "nvme_w": 18.5}}]
})";

NodeConfig node_of(int cpus, int gpus, int nics, int nvmes, std::vector<double> watts) {
  NodeConfig n;
  n.cpus_per_node = cpus;
  n.gpus_per_node = gpus;
  n.nics_per_node = nics;
  n.nvme_per_node = nvmes;
  n.cpu_idle_w = watts[0];
  n.cpu_peak_w = watts[1];
  n.gpu_idle_w = watts[2];
  n.gpu_peak_w = watts[3];
  n.ram_avg_w = watts[4];
  n.nic_w = watts[5];
  n.nvme_w = watts[6];
  return n;
}

PumpConfig pump_of(double flow, double head, double shutoff, double rated, double eff,
                   double min_speed) {
  PumpConfig p;
  p.design_flow_m3s = flow;
  p.design_head_pa = head;
  p.shutoff_head_pa = shutoff;
  p.rated_power_w = rated;
  p.efficiency = eff;
  p.min_speed = min_speed;
  return p;
}

/// kEveryField built member by member, independently of the JSON keys.
SystemConfig every_field_config() {
  SystemConfig c;
  c.name = "every-field";
  c.cdu_count = 7;
  c.racks_per_cdu = 5;
  c.rack_count = 33;
  c.node = node_of(3, 6, 5, 7, {91.5, 281.5, 89.5, 561.5, 75.5, 21.5, 16.5});
  c.rack.chassis_per_rack = 9;
  c.rack.rectifiers_per_rack = 36;
  c.rack.blades_per_rack = 66;
  c.rack.nodes_per_rack = 132;
  c.rack.sivocs_per_rack = 130;
  c.rack.switches_per_rack = 34;
  c.rack.switch_avg_w = 251.5;
  c.power.rectifier_efficiency = PiecewiseLinearCurve{{0.0, 0.81}, {9000.0, 0.95}};
  c.power.sivoc_efficiency = PiecewiseLinearCurve{{0.0, 0.82}, {1.0, 0.97}};
  c.power.rectifier_rated_w = 12600.5;
  c.power.sivoc_rated_w = 2900.5;
  c.power.rectifiers_per_group = 6;
  c.power.blades_per_group = 11;
  c.power.load_sharing = LoadSharingPolicy::kSmartStaging;
  c.power.feed = PowerFeed::kDC380;
  c.power.dc_feed_efficiency = 0.991;
  c.scheduler.policy = "power_capped";
  c.scheduler.policy_params["cap_mw"] = Json(17.5);
  c.scheduler.max_queue_depth = 44;
  c.workload = WorkloadConfig{56.5, 269.5, 627.5, 2341.5, 1801.5, 0.43, 0.17, 0.71, 0.23};
  c.economics.electricity_usd_per_kwh = 0.11;
  c.economics.emission_lbs_per_mwh = 853.5;
  CoolingConfig& k = c.cooling;
  k.cdu.pump_avg_w = 8701.5;
  k.cdu.pump = pump_of(0.031, 206001.5, 279001.5, 8702.5, 0.76, 0.21);
  k.cdu.secondary_volume_m3 = 1.25;
  k.cdu.secondary_design_flow_m3s = 0.0325;
  k.cdu.secondary_design_dp_pa = 206002.5;
  k.cdu.hex.ua_w_per_k = 300001.5;
  k.cdu.supply_setpoint_c = 31.5;
  k.cdu.loop_dp_setpoint_pa = 175001.5;
  k.cdu.rack_branch_dp_pa = 113001.5;
  k.primary.pump_count = 5;
  k.primary.pump = pump_of(0.091, 310002.5, 400001.5, 40001.5, 0.77, 0.22);
  k.primary.ehx_count = 6;
  k.primary.ehx.ua_w_per_k = 2000001.5;
  k.primary.volume_m3 = 41.5;
  k.primary.design_flow_m3s = 0.355;
  k.primary.htws_setpoint_c = 27.5;
  k.primary.dp_setpoint_pa = 310001.5;
  k.primary.stage_up_speed = 0.93;
  k.primary.stage_down_speed = 0.46;
  k.primary.stage_min_interval_s = 301.5;
  k.ct.pump_count = 3;
  k.ct.pump = pump_of(0.201, 220001.5, 290001.5, 60001.5, 0.79, 0.23);
  k.ct.volume_m3 = 91.5;
  k.ct.design_flow_m3s = 0.61;
  k.ct.header_pressure_setpoint_pa = 145001.5;
  k.ct.stage_up_speed = 0.94;
  k.ct.stage_down_speed = 0.47;
  k.ct.stage_min_interval_s = 302.5;
  k.ct.ct_stage_temp_band_k = 1.6;
  k.ct.ct_stage_min_interval_s = 601.5;
  k.ct.tower.tower_count = 4;
  k.ct.tower.cells_per_tower = 2;
  k.ct.tower.fan_rated_w = 37001.5;
  k.ct.tower.design_approach_k = 4.5;
  k.ct.tower.effectiveness = PiecewiseLinearCurve{{0.0, 0.1}, {1.0, 0.7}};
  k.cooling_efficiency = 0.944;
  k.staging_delay_s = 121.5;
  k.step_s = 16.5;
  k.thermal_substep_s = 3.5;
  c.simulation.tick_s = 1.5;
  c.simulation.cooling_quantum_s = 16.5;
  c.simulation.trace_quantum_s = 14.5;
  c.partitions = {
      PartitionConfig{"cpu", 1000, node_of(2, 0, 1, 4, {92.5, 282.5, 0.5, 1.5, 76.5, 22.5, 17.5})},
      PartitionConfig{"gpu", 500, node_of(4, 8, 8, 1, {93.5, 283.5, 90.5, 562.5, 77.5, 23.5, 18.5})}};
  return c;
}

// A row that points at the wrong member (or a member that no row names)
// makes one of these differ: the struct-to-JSON direction is checked
// against the hand-written document, then JSON-to-struct by the round trip.
TEST(ConfigJsonTest, EveryFieldRoundTripsThroughItsOwnKey) {
  const Json doc = Json::parse(kEveryField);
  const SystemConfig built = every_field_config();
  ASSERT_NO_THROW(built.validate());
  EXPECT_EQ(system_config_to_json(built).dump(2), doc.dump(2));
  EXPECT_EQ(system_config_to_json(system_config_from_json(doc)).dump(2), doc.dump(2));
}

/// The ConfigError message of parsing `text`, or "" when it parses.
std::string config_error(const std::string& text) {
  try {
    (void)system_config_from_json(Json::parse(text));
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigJsonTest, MisspeltKeyAtEveryLevelNamesItsPath) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"nmae": "x"})", "\"nmae\""},
      {R"({"node": {"gpu_peak_W": 9999}})", "node.gpu_peak_W"},
      {R"({"cooling": {"cdu": {"pump": {"design_flow": 1}}}})", "cooling.cdu.pump.design_flow"},
      {R"({"cooling": {"ct": {"tower": {"towers": 3}}}})", "cooling.ct.tower.towers"},
      {R"({"cdu_count": 4, "racks_per_cdu": 3, "rack_count": 12, "partitions": [
            {"name": "p", "node_count": 8, "node": {"gpu_peak_W": 1}}]})",
       "partitions[0].node.gpu_peak_W"},
      {R"({"scheduler": {"polcy": "fcfs"}})", "scheduler.polcy"},
  };
  for (const auto& [text, path] : cases) {
    const std::string what = config_error(text);
    EXPECT_NE(what.find(path), std::string::npos) << text << " -> " << what;
    EXPECT_NE(what.find("valid keys"), std::string::npos) << what;
  }
  // The valid keys of the section are listed.
  EXPECT_NE(config_error(R"({"node": {"gpu_peak_W": 9999}})").find("gpu_peak_w"),
            std::string::npos);
}

TEST(ConfigJsonTest, NullMeansDefaultInDocumentsAndDeltas) {
  const Json delta = Json::parse(R"({"node": {"gpu_peak_w": null}})");
  EXPECT_EQ(system_config_from_json(delta).node.gpu_peak_w, 560.0);
  Json changed = frontier_descriptor_json();
  changed["node"]["gpu_peak_w"] = Json(600.0);
  ASSERT_EQ(system_config_from_json(changed).node.gpu_peak_w, 600.0);
  // RFC 7386: a null member of a delta deletes the key, so the default returns.
  EXPECT_EQ(system_config_from_json(Json::merge_patch(changed, delta)).node.gpu_peak_w, 560.0);
}

TEST(ConfigJsonTest, IntegersOutsideIntAreErrorsNotWraparound) {
  // 4294967424 = 2^32 + 128 used to narrow silently to 128.
  const std::string wrapped = config_error(R"({"rack": {"nodes_per_rack": 4294967424}})");
  EXPECT_NE(wrapped.find("rack.nodes_per_rack"), std::string::npos) << wrapped;
  EXPECT_NE(config_error(R"({"rack_count": 1e300})").find("rack_count"), std::string::npos);
  EXPECT_NE(config_error(R"({"rack_count": 2.5})").find("rack_count"), std::string::npos);
  EXPECT_NE(config_error(R"({"node": {"gpu_peak_w": "high"}})").find("node.gpu_peak_w"),
            std::string::npos);
  EXPECT_NE(config_error(R"({"cooling": {"cdu": 3}})").find("cooling.cdu"), std::string::npos);
}

TEST(ConfigJsonTest, PartitionNodeDefaultsFromTheTopLevelNode) {
  const SystemConfig c = system_config_from_json(Json::parse(R"({
    "cdu_count": 4, "racks_per_cdu": 3, "rack_count": 12,
    "node": {"gpu_peak_w": 600},
    "partitions": [{"name": "a", "node_count": 8},
                   {"name": "b", "node_count": 8, "node": {"gpus_per_node": 0}}]})"));
  ASSERT_EQ(c.partitions.size(), 2u);
  EXPECT_EQ(c.partitions[0].node.gpu_peak_w, 600.0);
  EXPECT_EQ(c.partitions[1].node.gpu_peak_w, 600.0);
  EXPECT_EQ(c.partitions[1].node.gpus_per_node, 0);
  EXPECT_NE(config_error(R"({"partitions": [{"name": "a"}]})").find("node_count"),
            std::string::npos);
}

TEST(ConfigJsonTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "exadigit_config_test.json").string();
  system_config_to_json(frontier_system_config()).save_file(path);
  const SystemConfig c = system_config_from_json(Json::load_file(path));
  EXPECT_EQ(c.total_nodes(), 9472);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace exadigit
