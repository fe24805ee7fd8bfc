#include "scenario/scenario_spec.hpp"

#include <mutex>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "config/config_json.hpp"
#include "core/physical_twin.hpp"
#include "raps/workload.hpp"
#include "scenario/scenario_result.hpp"
#include "telemetry/store.hpp"
#include "telemetry/weather.hpp"

namespace exadigit {

namespace {

std::mutex dataset_loader_mutex;
ScenarioDatasetLoader dataset_loader;  // empty = default filesystem resolution
ScenarioChunkSourceOpener chunk_source_opener;  // empty = default resolution

ScenarioDatasetLoader current_dataset_loader() {
  const std::lock_guard<std::mutex> lock(dataset_loader_mutex);
  return dataset_loader;
}

ScenarioChunkSourceOpener current_chunk_source_opener() {
  const std::lock_guard<std::mutex> lock(dataset_loader_mutex);
  return chunk_source_opener;
}

}  // namespace

void set_scenario_dataset_loader(ScenarioDatasetLoader loader) {
  const std::lock_guard<std::mutex> lock(dataset_loader_mutex);
  dataset_loader = std::move(loader);
}

void set_scenario_chunk_source_opener(ScenarioChunkSourceOpener opener) {
  const std::lock_guard<std::mutex> lock(dataset_loader_mutex);
  chunk_source_opener = std::move(opener);
}

TimeSeries synthetic_wetbulb_series(double duration_s, std::uint64_t seed) {
  SyntheticWeather weather(WeatherConfig{}, Rng(seed));
  TimeSeries raw = weather.generate(120.0 * units::kSecondsPerDay, duration_s + 120.0);
  TimeSeries shifted;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    shifted.push_back(static_cast<double>(i) * 60.0, raw.value(i));
  }
  return shifted;
}

ScenarioSource ScenarioSource::from_json(const Json& j) {
  reject_unknown_keys(
      j, {"kind", "path", "format", "hours", "seed", "chunk_seconds", "max_resident_mb"},
      "scenario source");
  ScenarioSource s;
  s.path = j.string_or("path", "");
  s.format = j.string_or("format", "");
  // A bare "path" implies a dataset source, so forgetting "kind" can never
  // silently replace the user's data with a synthetic recording.
  const std::string kind = j.string_or("kind", s.path.empty() ? "synthetic" : "dataset");
  if (kind == "synthetic") {
    s.kind = Kind::kSynthetic;
  } else if (kind == "dataset") {
    s.kind = Kind::kDataset;
  } else {
    throw ConfigError("unknown scenario source kind: \"" + kind +
                      "\" (expected \"synthetic\" or \"dataset\")");
  }
  s.hours = j.number_or("hours", s.hours);
  s.seed = static_cast<std::uint64_t>(j.int_or("seed", static_cast<std::int64_t>(s.seed)));
  s.chunk_seconds = j.number_or("chunk_seconds", 0.0);
  s.max_resident_mb = j.number_or("max_resident_mb", 0.0);
  require(s.hours > 0.0, "scenario source hours must be positive");
  require(s.chunk_seconds >= 0.0, "scenario source chunk_seconds must be >= 0");
  require(s.max_resident_mb >= 0.0, "scenario source max_resident_mb must be >= 0");
  require(s.kind != Kind::kSynthetic || s.max_resident_mb == 0.0,
          "synthetic scenario source does not take max_resident_mb (it is in memory)");
  require(s.kind != Kind::kDataset || !s.path.empty(),
          "dataset scenario source requires a path");
  require(s.kind != Kind::kSynthetic || s.path.empty(),
          "synthetic scenario source does not take a path");
  require(s.kind != Kind::kSynthetic || s.format.empty(),
          "synthetic scenario source does not take a format");
  return s;
}

Json ScenarioSource::to_json() const {
  Json j;
  j["kind"] = kind == Kind::kSynthetic ? "synthetic" : "dataset";
  if (!path.empty()) j["path"] = path;
  if (!format.empty()) j["format"] = format;
  j["hours"] = hours;
  j["seed"] = static_cast<std::int64_t>(seed);
  if (chunk_seconds > 0.0) j["chunk_seconds"] = chunk_seconds;
  if (max_resident_mb > 0.0) j["max_resident_mb"] = max_resident_mb;
  return j;
}

SystemConfig ScenarioSpec::resolve_config() const {
  if (config_path.empty() && config_delta.is_null()) return frontier_system_config();
  Json base = config_path.empty() ? system_config_to_json(frontier_system_config())
                                  : Json::load_file(config_path);
  if (!config_delta.is_null()) base = Json::merge_patch(base, config_delta);
  return system_config_from_json(base);
}

TelemetryDataset ScenarioSpec::resolve_dataset(const SystemConfig& config) const {
  if (source.kind == ScenarioSource::Kind::kDataset) {
    // A long-lived service may have installed a residency cache.
    if (const ScenarioDatasetLoader loader = current_dataset_loader(); loader) {
      return loader(source);
    }
    // Explicit formats go through the reader registry (so bespoke adapters
    // like "swf" work); otherwise the single-pass columnar loader
    // auto-detects the native format from the manifest.
    if (!source.format.empty()) {
      return TelemetryReaderRegistry::instance().load(source.format, source.path);
    }
    return load_dataset(source.path);
  }
  // Same recording path as `exadigit_cli record`: a perturbed physical twin
  // runs the workload and samples every Table II channel.
  const double duration = source.hours * units::kSecondsPerHour;
  WorkloadGenerator gen(config.workload, config, Rng(source.seed));
  SyntheticPhysicalTwin physical(config, PhysicalTwinOptions{});
  return physical.record(gen.generate(0.0, duration),
                         synthetic_wetbulb_series(duration, source.seed + 1), duration);
}

std::unique_ptr<ChunkedTelemetrySource> ScenarioSpec::resolve_chunk_source(
    const SystemConfig& config) const {
  if (source.kind == ScenarioSource::Kind::kDataset) {
    // A long-lived service may have installed a residency-aware opener.
    if (const ScenarioChunkSourceOpener opener = current_chunk_source_opener(); opener) {
      return opener(source);
    }
    BinChunkSource::Options options;
    options.max_resident_mb = source.max_resident_mb;
    if (source.format.empty()) {
      return open_chunk_source(source.path, source.chunk_seconds, options);
    }
    if (source.format == kExadigitBinFormat) {
      return std::make_unique<BinChunkSource>(source.path, options);
    }
    // Bespoke registry formats only produce materialized datasets; slice
    // the loaded dataset in memory.
    return std::make_unique<InMemoryChunkSource>(
        dataset_to_frame(TelemetryReaderRegistry::instance().load(source.format, source.path)),
        source.chunk_seconds);
  }
  return std::make_unique<InMemoryChunkSource>(dataset_to_frame(resolve_dataset(config)),
                                               source.chunk_seconds);
}

ScenarioSpec ScenarioSpec::from_json(const Json& j) {
  reject_unknown_keys(j,
                      {"name", "type", "config_path", "config", "source", "horizon_hours",
                       "seed", "params"},
                      "scenario spec");
  ScenarioSpec s;
  s.type = j.string_or("type", "");
  require(!s.type.empty(), "scenario spec requires a \"type\"");
  s.name = j.string_or("name", s.type);
  s.config_path = j.string_or("config_path", "");
  if (j.contains("config")) {
    const Json& delta = j.at("config");
    require(delta.is_object(), "scenario \"config\" delta must be an object");
    s.config_delta = delta;
  }
  if (j.contains("source")) s.source = ScenarioSource::from_json(j.at("source"));
  s.horizon_hours = j.number_or("horizon_hours", s.horizon_hours);
  require(s.horizon_hours > 0.0, "scenario horizon_hours must be positive");
  if (j.contains("seed")) s.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
  if (j.contains("params")) {
    const Json& params = j.at("params");
    require(params.is_object(), "scenario \"params\" must be an object");
    s.params = params;
  }
  return s;
}

Json ScenarioSpec::to_json() const {
  Json j;
  j["name"] = name;
  j["type"] = type;
  if (!config_path.empty()) j["config_path"] = config_path;
  if (!config_delta.is_null()) j["config"] = config_delta;
  j["source"] = source.to_json();
  j["horizon_hours"] = horizon_hours;
  if (seed.has_value()) j["seed"] = static_cast<std::int64_t>(*seed);
  if (!params.is_null()) j["params"] = params;
  return j;
}

ScenarioBatch ScenarioBatch::from_json(const Json& j) {
  ScenarioBatch batch;
  const Json* scenarios = &j;
  if (j.is_object()) {
    reject_unknown_keys(j, {"scenarios", "jobs", "seed"}, "scenario batch");
    require(j.contains("scenarios"), "scenario batch requires a \"scenarios\" array");
    scenarios = &j.at("scenarios");
    batch.jobs = narrow_int(j.int_or("jobs", batch.jobs), "scenario batch jobs");
    require(batch.jobs >= 0, "scenario batch jobs must be >= 0");
    batch.seed = static_cast<std::uint64_t>(
        j.int_or("seed", static_cast<std::int64_t>(batch.seed)));
  }
  if (!scenarios->is_array()) {
    throw ConfigError("scenario batch must be an array or an object with \"scenarios\"");
  }
  std::set<std::string> names;
  for (const Json& spec : scenarios->as_array()) {
    batch.scenarios.push_back(ScenarioSpec::from_json(spec));
    const std::string& name = batch.scenarios.back().name;
    // Uniqueness is checked on the *sanitized* name: export files are keyed
    // by it, so "run:1" and "run_1" would silently overwrite each other.
    require(names.insert(sanitize_scenario_name(name)).second,
            "duplicate scenario name (after sanitizing): \"" + name + "\"");
  }
  return batch;
}

Json ScenarioBatch::to_json() const {
  Json j;
  j["jobs"] = jobs;
  j["seed"] = static_cast<std::int64_t>(seed);
  Json list{Json::Array{}};
  for (const ScenarioSpec& s : scenarios) list.push_back(s.to_json());
  j["scenarios"] = std::move(list);
  return j;
}

}  // namespace exadigit
