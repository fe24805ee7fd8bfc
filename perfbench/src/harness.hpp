#pragma once

/// @file harness.hpp
/// The contract between the measurement program and its workloads.
///
/// A workload builds its inputs from the seed in setup(), then the program
/// calls run_op() in a closed loop (the next operation starts when the
/// previous one has returned) for the measurement window. Every operation
/// checks its own outputs; a mismatch is a failed operation. In a traced
/// run the loop alternates untraced and traced operations, so the
/// difference between the two is the tracing overhead.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "trace.hpp"

namespace perfbench {

/// Latency of one request inside an operation, by reply class.
struct RequestSample {
  std::string label;  ///< "hit", "miss" or "stats"
  double ms = 0.0;
};

/// Result of one measured operation.
struct OpOutcome {
  /// Simulated seconds the operation delivered (the sim_rate numerator).
  double sim_seconds = 0.0;
  /// Output checks made, and one message per check that failed.
  long long checks = 1;
  std::vector<std::string> errors;
  /// Per-request latencies of operations made of several requests.
  std::vector<RequestSample> requests;

  void fail(std::string message) { errors.push_back(std::move(message)); }
};

/// Per-layer results of a traced run.
struct LayerReport {
  /// Direct values; counts are per traced operation.
  exadigit::Json layers;
  /// Metric name -> span name; the metric is that span's self time per
  /// traced operation.
  exadigit::Json span_metrics;
  /// Output checks made while reporting, and the ones that failed.
  long long checks = 0;
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` and warms up. Called once per
  /// object; the program times several fresh objects and reports the median.
  virtual void setup(std::uint64_t seed) = 0;

  /// One operation. `traced` selects the instrumented path, which records
  /// spans into the tracer and must produce the same outputs.
  virtual OpOutcome run_op(bool traced) = 0;

  /// Per-layer values after a traced run of `traced_ops` traced operations.
  virtual LayerReport report_layers(std::size_t traced_ops) = 0;
};

/// Workload factories. The tracer outlives the workload; stream_replay
/// writes its dataset under `scratch_dir`.
std::unique_ptr<Workload> make_coupled_replay(Tracer& tracer);
std::unique_ptr<Workload> make_stream_replay(Tracer& tracer, const std::string& scratch_dir);
std::unique_ptr<Workload> make_sched_backlog(Tracer& tracer);
std::unique_ptr<Workload> make_server_mixed(Tracer& tracer);

/// Milliseconds between two Tracer::now_ns() readings.
inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

}  // namespace perfbench
