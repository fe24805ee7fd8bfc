#pragma once

/// @file inputs.hpp
/// Seeded input generation shared by the replay workloads.

#include <cstdint>

#include "config/system_config.hpp"
#include "telemetry/schema.hpp"

namespace perfbench {

/// splitmix64 step: independent sub-seeds from one workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// A Frontier telemetry window recorded by SyntheticPhysicalTwin: a
/// synthetic job mix of duration / `mean_arrival_s` jobs, the same for
/// every seed, arriving in a seeded order at seeded Poisson times, optionally
/// the paper's Fig. 9 HPL campaign (four back-to-back 9216-node runs from
/// 55 % of the window), and a synthetic wet-bulb series on a 60 s grid.
/// The recorded jobs carry their realised start times, so replaying them
/// bypasses the scheduler queue.
exadigit::TelemetryDataset record_frontier_window(const exadigit::SystemConfig& spec,
                                                  std::uint64_t seed, double duration_s,
                                                  double mean_arrival_s, bool hpl_campaign);

}  // namespace perfbench
