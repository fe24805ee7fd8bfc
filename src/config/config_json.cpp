#include "config/config_json.hpp"

#include <array>
#include <mutex>
#include <set>
#include <span>
#include <type_traits>
#include <utility>

namespace exadigit {

Json curve_to_json(const PiecewiseLinearCurve& curve) {
  Json::Array arr;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    arr.push_back(Json(Json::Array{Json(curve.xs()[i]), Json(curve.ys()[i])}));
  }
  return Json(std::move(arr));
}

PiecewiseLinearCurve curve_from_json(const Json& j) {
  std::vector<double> xs, ys;
  for (const auto& knot : j.as_array()) {
    xs.push_back(knot.at(std::size_t{0}).as_number());
    ys.push_back(knot.at(std::size_t{1}).as_number());
  }
  return PiecewiseLinearCurve(std::move(xs), std::move(ys));
}

namespace {

/// One descriptor field: its JSON key and both directions. Each struct has
/// one table of rows below that both directions walk, so a field is named
/// once. A row's functions come from its member's C++ type (number, int,
/// string, curve, enum-by-name, nested table, opaque Json), so they cannot
/// disagree with it. `to` returning null omits the key; `from` gets the
/// value and the key's full path.
template <class S>
struct Row {
  const char* name;
  Json (*to)(const S& s);
  void (*from)(const Json& j, S& s, const std::string& path);
};

template <class S>
std::span<const Row<S>> table();  // one specialization per struct, below

// Enum-by-name tables; every enum here has exactly two values.
template <class E>
using Names = std::array<std::pair<E, const char*>, 2>;
constexpr Names<LoadSharingPolicy> names_of(LoadSharingPolicy) {
  return {{{LoadSharingPolicy::kSharedBus, "shared_bus"},
           {LoadSharingPolicy::kSmartStaging, "smart_staging"}}};
}
constexpr Names<PowerFeed> names_of(PowerFeed) {
  return {{{PowerFeed::kAC, "ac"}, {PowerFeed::kDC380, "dc380"}}};
}

Json encode(double v) { return Json(v); }
Json encode(int v) { return Json(v); }
Json encode(const std::string& v) { return Json(v); }
Json encode(const PiecewiseLinearCurve& v) { return curve_to_json(v); }
Json encode(const Json& v) { return v; }
template <class E>
  requires std::is_enum_v<E>
Json encode(E v) {
  return Json(names_of(v)[names_of(v)[0].first == v ? 0 : 1].second);
}
template <class S>
  requires std::is_class_v<S>
Json encode(const S& s) {
  Json j;
  for (const Row<S>& row : table<S>()) {
    if (Json v = row.to(s); !v.is_null()) j[row.name] = std::move(v);
  }
  return j;
}

void decode(const Json& j, double& v, const std::string&) { v = j.as_number(); }
void decode(const Json& j, int& v, const std::string& path) { v = narrow_int(j.as_int(), path); }
void decode(const Json& j, std::string& v, const std::string&) { v = j.as_string(); }
void decode(const Json& j, PiecewiseLinearCurve& v, const std::string&) { v = curve_from_json(j); }
void decode(const Json& j, Json& v, const std::string&) { v = j; }
template <class E>
  requires std::is_enum_v<E>
void decode(const Json& j, E& v, const std::string& path) {
  std::string valid;
  for (const auto& [value, name] : names_of(v)) {
    if (j.as_string() == name) return void(v = value);
    valid += std::string(valid.empty() ? "" : ", ") + "\"" + name + "\"";
  }
  throw ConfigError(path + " must be one of " + valid + ", got \"" + j.as_string() + "\"");
}
/// Strict: an unknown key at any level is a ConfigError naming its path. A
/// null or absent key keeps the member's current (default) value.
template <class S>
  requires std::is_class_v<S>
void decode(const Json& j, S& s, const std::string& path) {
  std::vector<std::string> valid;
  for (const Row<S>& row : table<S>()) valid.emplace_back(row.name);
  reject_unknown_keys(j, valid, "config", path);
  for (const Row<S>& row : table<S>()) {
    const auto it = j.as_object().find(row.name);
    if (it == j.as_object().end() || it->second.is_null()) continue;
    const std::string key = path.empty() ? row.name : path + "." + row.name;
    try {
      row.from(it->second, s, key);
    } catch (const JsonTypeError& e) {
      throw ConfigError(key + ": " + e.what());
    }
  }
}

/// The row of the member of S reached by `Path`; a longer path flattens a
/// nested member (cdu.hex.ua_w_per_k is the key hex_ua_w_per_k).
template <class S, auto... Path>
constexpr Row<S> field(const char* name) {
  return {name, [](const S& s) { return encode((s.* ... .*Path)); },
          [](const Json& j, S& s, const std::string& path) { decode(j, (s.* ... .*Path), path); }};
}

// TABLE(S, rows...) defines table<S>(); FIELD(m) is the row of S::m, key "m".
#define TABLE(S, ...)                                \
  template <>                                        \
  std::span<const Row<S>> table<S>() {               \
    using T = S;                                     \
    static constexpr Row<T> kRows[] = {__VA_ARGS__}; \
    return kRows;                                    \
  }
#define FIELD(m) field<T, &T::m>(#m)

TABLE(PumpConfig, FIELD(design_flow_m3s), FIELD(design_head_pa), FIELD(shutoff_head_pa),
      FIELD(rated_power_w), FIELD(efficiency), FIELD(min_speed))
TABLE(CoolingTowerConfig, FIELD(tower_count), FIELD(cells_per_tower), FIELD(fan_rated_w),
      FIELD(design_approach_k), FIELD(effectiveness))
TABLE(CduLoopConfig, FIELD(pump_avg_w), FIELD(pump), FIELD(secondary_volume_m3),
      FIELD(secondary_design_flow_m3s), FIELD(secondary_design_dp_pa),
      field<T, &T::hex, &HeatExchangerConfig::ua_w_per_k>("hex_ua_w_per_k"),
      FIELD(supply_setpoint_c), FIELD(loop_dp_setpoint_pa), FIELD(rack_branch_dp_pa))
TABLE(PrimaryLoopConfig, FIELD(pump_count), FIELD(pump), FIELD(ehx_count),
      field<T, &T::ehx, &HeatExchangerConfig::ua_w_per_k>("ehx_ua_w_per_k"), FIELD(volume_m3),
      FIELD(design_flow_m3s), FIELD(htws_setpoint_c), FIELD(dp_setpoint_pa),
      FIELD(stage_up_speed), FIELD(stage_down_speed), FIELD(stage_min_interval_s))
TABLE(CtLoopConfig, FIELD(pump_count), FIELD(pump), FIELD(volume_m3), FIELD(design_flow_m3s),
      FIELD(header_pressure_setpoint_pa), FIELD(stage_up_speed), FIELD(stage_down_speed),
      FIELD(stage_min_interval_s), FIELD(ct_stage_temp_band_k), FIELD(ct_stage_min_interval_s),
      FIELD(tower))
TABLE(CoolingConfig, FIELD(cdu), FIELD(primary), FIELD(ct), FIELD(cooling_efficiency),
      FIELD(staging_delay_s), FIELD(step_s), FIELD(thermal_substep_s))
TABLE(NodeConfig, FIELD(cpus_per_node), FIELD(gpus_per_node), FIELD(nics_per_node),
      FIELD(nvme_per_node), FIELD(cpu_idle_w), FIELD(cpu_peak_w), FIELD(gpu_idle_w),
      FIELD(gpu_peak_w), FIELD(ram_avg_w), FIELD(nic_w), FIELD(nvme_w))
TABLE(RackConfig, FIELD(chassis_per_rack), FIELD(rectifiers_per_rack), FIELD(blades_per_rack),
      FIELD(nodes_per_rack), FIELD(sivocs_per_rack), FIELD(switches_per_rack),
      FIELD(switch_avg_w))
TABLE(PowerChainConfig, FIELD(rectifier_efficiency), FIELD(sivoc_efficiency),
      FIELD(rectifier_rated_w), FIELD(sivoc_rated_w), FIELD(rectifiers_per_group),
      FIELD(blades_per_group), FIELD(load_sharing), FIELD(feed), FIELD(dc_feed_efficiency))
TABLE(SchedulerConfig,
      Row<T>({"policy", [](const T& s) { return Json(s.policy); },
              [](const Json& j, T& s, const std::string&) {
                require_scheduler_policy_name(j.as_string());
                s.policy = j.as_string();
              }}),
      field<T, &T::policy_params>("params"),  // omitted while null
      FIELD(max_queue_depth))
TABLE(WorkloadConfig, FIELD(mean_arrival_s), FIELD(mean_nodes), FIELD(std_nodes),
      FIELD(mean_walltime_s), FIELD(std_walltime_s), FIELD(mean_cpu_util), FIELD(std_cpu_util),
      FIELD(mean_gpu_util), FIELD(std_gpu_util))
TABLE(EconomicsConfig, FIELD(electricity_usd_per_kwh), FIELD(emission_lbs_per_mwh))
TABLE(SimulationConfig, FIELD(tick_s), FIELD(cooling_quantum_s), FIELD(trace_quantum_s))
TABLE(PartitionConfig, FIELD(name), FIELD(node_count), FIELD(node))
TABLE(SystemConfig, FIELD(name), FIELD(cdu_count), FIELD(racks_per_cdu), FIELD(rack_count),
      FIELD(node), FIELD(rack), FIELD(power), FIELD(scheduler), FIELD(workload),
      FIELD(economics), FIELD(cooling), FIELD(simulation),
      Row<T>({"partitions",
              [](const T& c) {
                Json parts;  // stays null, so omitted, without partitions
                for (const PartitionConfig& p : c.partitions) parts.push_back(encode(p));
                return parts;
              },
              [](const Json& j, T& c, const std::string& path) {
                for (const Json& jp : j.as_array()) {
                  const std::string at = path + "[" + std::to_string(c.partitions.size()) + "]";
                  require(jp.contains("name") && jp.contains("node_count"),
                          at + " requires \"name\" and \"node_count\"");
                  PartitionConfig p;
                  p.node = c.node;  // after "node": the table decodes it first
                  decode(jp, p, at);
                  c.partitions.push_back(std::move(p));
                }
              }}))

#undef FIELD
#undef TABLE

// Accepted scheduler policy names. An ordered set so error messages and
// known_scheduler_policy_names() list names deterministically.
struct PolicyNames {
  std::mutex mutex;
  std::set<std::string> names{"fcfs", "sjf", "easy_backfill", "priority",
                              "power_capped", "price_aware"};
};
PolicyNames& policy_names() {
  static PolicyNames p;
  return p;
}

}  // namespace

std::vector<std::string> known_scheduler_policy_names() {
  std::lock_guard<std::mutex> lock(policy_names().mutex);
  return std::vector<std::string>(policy_names().names.begin(), policy_names().names.end());
}

void register_scheduler_policy_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(policy_names().mutex);
  policy_names().names.insert(name);
}

void require_scheduler_policy_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(policy_names().mutex);
  const std::set<std::string>& names = policy_names().names;
  if (names.count(name) != 0) return;
  std::string msg = "unknown scheduler policy \"" + name + "\"; valid policies are: ";
  for (const std::string& n : names) msg += (n == *names.begin() ? "\"" : ", \"") + n + "\"";
  throw ConfigError(msg);
}

Json system_config_to_json(const SystemConfig& c) { return encode(c); }

SystemConfig system_config_from_json(const Json& j) {
  SystemConfig c = frontier_system_config();  // every absent key keeps its default
  decode(j, c, "");
  c.validate();
  return c;
}

const Json& frontier_descriptor_json() {
  // Magic-static: built on first use, thread-safe, immutable afterwards.
  static const Json descriptor = system_config_to_json(frontier_system_config());
  return descriptor;
}

}  // namespace exadigit
