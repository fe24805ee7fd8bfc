#pragma once

/// @file policy_probe.hpp
/// A scheduling policy that wraps a registered one and measures it.
///
/// Traced runs name "perfbench_probe" as the scheduler policy. The probe
/// creates the policy named in PolicyProbe::inner through the
/// SchedulingPolicyRegistry, delegates every pass to it, and records one
/// span per schedule() call plus the pass, queue-depth and start counters.
/// The decisions are the inner policy's, so the start log is unchanged.

#include <cstdint>
#include <string>

#include "trace.hpp"

namespace perfbench {

struct PolicyProbe {
  std::string inner = "fcfs";
  Tracer* tracer = nullptr;
  std::uint32_t span = 0;
  long long passes = 0;
  long long queue_scanned = 0;  ///< sum of the queue depth at each pass
  long long start_attempts = 0;
  long long starts = 0;
};

/// The process-wide probe state the registered policy reports into.
PolicyProbe& policy_probe();

/// Registers the probe policy (idempotent), points it at `inner` and at
/// `tracer`'s "raps.policy.schedule" span, and returns its registry name.
const char* register_policy_probe(Tracer& tracer, const std::string& inner);

}  // namespace perfbench
