#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "core/physical_twin.hpp"
#include "raps/workload.hpp"
#include "telemetry/weather.hpp"

namespace perfbench {

namespace {

/// Seed of the one job mix every replay window draws from.
constexpr std::uint64_t kJobMixSeed = 0x5eedf00dULL;

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

exadigit::TelemetryDataset record_frontier_window(const exadigit::SystemConfig& spec,
                                                  std::uint64_t seed, double duration_s,
                                                  double mean_arrival_s, bool hpl_campaign) {
  using namespace exadigit;
  // The job mix is one fixed draw of the generator: the seed decides the
  // order in which its jobs arrive and when, not how many there are or how
  // big. Node counts are heavy-tailed, so a mix drawn per seed would vary
  // the replay's work by up to a quarter between seeds.
  const auto count = static_cast<std::size_t>(std::lround(duration_s / mean_arrival_s));
  WorkloadGenerator gen(spec.workload, spec, Rng(kJobMixSeed));
  std::vector<JobRecord> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) jobs.push_back(gen.draw_job(0.0));
  Rng order(mix_seed(seed, 1));
  for (std::size_t i = count; i > 1; --i) {
    std::swap(jobs[i - 1], jobs[static_cast<std::size_t>(
                               order.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  // Poisson arrivals conditioned on `count` of them: sorted uniform times.
  std::vector<double> arrivals(count);
  for (double& t : arrivals) t = order.uniform(0.0, duration_s);
  std::sort(arrivals.begin(), arrivals.end());
  for (std::size_t i = 0; i < count; ++i) {
    jobs[i].submit_time_s = arrivals[i];
    jobs[i].id = static_cast<std::int64_t>(i) + 1;
    jobs[i].name = "synthetic-" + std::to_string(jobs[i].id);
  }
  if (hpl_campaign) {
    const double hpl_start = 0.55 * duration_s;
    for (int k = 0; k < 4; ++k) {
      JobRecord hpl = make_hpl_job(hpl_start + k * 2400.0, 2100.0);
      hpl.id = 900000 + k;
      jobs.push_back(hpl);
    }
  }

  // Weather from a seeded day of the year, re-timed onto the window's 60 s grid.
  const double day_of_year = static_cast<double>(mix_seed(seed, 2) % 365);
  SyntheticWeather weather(WeatherConfig{}, Rng(mix_seed(seed, 3)));
  const TimeSeries raw =
      weather.generate(day_of_year * units::kSecondsPerDay, duration_s + 120.0);
  TimeSeries wetbulb;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    wetbulb.push_back(static_cast<double>(i) * 60.0, raw.value(i));
  }

  PhysicalTwinOptions options;
  options.seed = mix_seed(seed, 4);
  SyntheticPhysicalTwin physical(spec, options);
  return physical.record(jobs, wetbulb, duration_s);
}

}  // namespace perfbench
