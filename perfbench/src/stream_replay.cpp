/// stream_replay: the paper's Table IV power-only path. Set-up records a
/// multi-day Frontier window, writes it as a chunked exadigit-bin v2
/// dataset and computes the monolithic in-memory replay once as the
/// reference. Each operation streams the dataset back through a
/// BinChunkSource under a residency budget into
/// replay_power(config, source, false), so chunk decode, the power model
/// and scoring do the work; cooling is off and the jobs bypass the queue.
///
/// Traced operations wrap the source in a decorator that times every
/// next() and counts decoded bytes, and run the scheduler through the
/// policy probe to show that no job is ever queued. That no cooling step
/// runs is not measured: it holds by construction, because
/// replay_power(..., false) builds its twin without a cooling model, and
/// the twin inside replay_power is out of the benchmark's reach; reduce.py
/// lists the fmi.* and cooling.* metrics as unmeasured for this workload.

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "core/replay.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "policy_probe.hpp"
#include "telemetry/chunk.hpp"

namespace perfbench {

namespace {

using namespace exadigit;

constexpr double kWindowS = 2.0 * 24.0 * 3600.0;
constexpr double kChunkS = 6.0 * 3600.0;
constexpr double kResidentBudgetMb = 64.0;
/// Below the machine's capacity (about one job every 67 s on average), so
/// the recording runs every job of the window's fixed mix.
constexpr double kMeanArrivalS = 90.0;

bool same_series(const TimeSeries& a, const TimeSeries& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.time(i) != b.time(i) || a.value(i) != b.value(i)) return false;
  }
  return true;
}

bool same_replay(const PowerReplayResult& a, const PowerReplayResult& b) {
  return same_series(a.predicted_power_mw, b.predicted_power_mw) &&
         same_series(a.measured_power_mw, b.measured_power_mw) &&
         same_series(a.eta_system, b.eta_system) && same_series(a.utilization, b.utilization) &&
         same_series(a.pue, b.pue) && a.report.jobs_completed == b.report.jobs_completed &&
         a.report.total_energy_mwh == b.report.total_energy_mwh &&
         a.power_score.mape_pct == b.power_score.mape_pct;
}

/// Decorator: times the inner source's next() and counts what it decoded.
/// The span feeds telemetry.next_ms; the summed time is taken out of
/// PowerReplayResult::wall_ms, whose clock runs across the next() calls.
class TimedChunkSource final : public ChunkedTelemetrySource {
 public:
  TimedChunkSource(ChunkedTelemetrySource& inner, Tracer& tracer, std::uint32_t span)
      : ChunkedTelemetrySource(inner.header()), inner_(inner), tracer_(tracer), span_(span) {
    gauge_ = inner.gauge();
  }

  [[nodiscard]] bool next(TelemetryChunk& out) override {
    ScopedSpan span(tracer_, span_);
    const std::int64_t t0 = Tracer::now_ns();
    const bool more = inner_.next(out);
    next_ms_ += ms_between(t0, Tracer::now_ns());
    ++calls_;
    if (more) bytes_ += out.payload_bytes();
    return more;
  }

  [[nodiscard]] long long calls() const { return calls_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] double next_ms() const { return next_ms_; }

 private:
  ChunkedTelemetrySource& inner_;
  Tracer& tracer_;
  std::uint32_t span_;
  long long calls_ = 0;
  std::size_t bytes_ = 0;
  double next_ms_ = 0.0;
};

class StreamReplay final : public Workload {
 public:
  StreamReplay(Tracer& tracer, const std::string& scratch_dir)
      : tracer_(tracer), dir_(scratch_dir + "/stream_replay_dataset") {
    span_open_ = tracer_.intern("telemetry.open");
    span_replay_ = tracer_.intern("core.replay_power");
    span_next_ = tracer_.intern("telemetry.next");
    span_decorator_ = tracer_.intern("trace.decorator");
  }

  ~StreamReplay() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  void setup(std::uint64_t seed) override {
    config_ = frontier_system_config();
    {
      const TelemetryDataset dataset =
          record_frontier_window(config_, seed, kWindowS, kMeanArrivalS, false);
      save_dataset_binary_chunked(dataset, dir_, kChunkS);
      reference_ = replay_power(config_, dataset, false);
    }
    traced_config_ = config_;
    traced_config_.scheduler.policy = register_policy_probe(tracer_, config_.scheduler.policy);
    // Warm-up: the first streamed replay must already match.
    const OpOutcome warm = run_op(false);
    if (!warm.errors.empty()) throw std::runtime_error(warm.errors.front());
  }

  OpOutcome run_op(bool traced) override {
    BinChunkSource::Options options;
    options.max_resident_mb = kResidentBudgetMb;
    PowerReplayResult result;
    if (!traced) {
      BinChunkSource source(dir_, options);
      result = replay_power(config_, source, false);
    } else {
      tracer_.begin(span_open_);
      BinChunkSource source(dir_, options);
      tracer_.end();
      tracer_.begin(span_decorator_);
      TimedChunkSource timed(source, tracer_, span_next_);
      tracer_.end();
      const std::int64_t t0 = Tracer::now_ns();
      tracer_.begin(span_replay_);
      result = replay_power(traced_config_, timed, false);
      tracer_.end();
      const double inclusive_ms = ms_between(t0, Tracer::now_ns());
      // wall_ms also covers the source's next() calls; those are
      // telemetry.next_ms, so core.replay_sim_ms leaves them out.
      replay_sim_ms_ += result.wall_ms - timed.next_ms();
      replay_other_ms_ += inclusive_ms - result.wall_ms;
      next_calls_ += timed.calls();
      decoded_bytes_ += timed.bytes();
      peak_resident_bytes_ = std::max(peak_resident_bytes_, source.gauge()->peak_bytes());
      max_queue_depth_ = std::max(max_queue_depth_, result.report.max_queue_depth);
    }
    OpOutcome outcome;
    outcome.sim_seconds = kWindowS;
    if (!same_replay(result, reference_)) {
      outcome.fail("streamed replay diverged from the monolithic replay");
    }
    return outcome;
  }

  LayerReport report_layers(std::size_t traced_ops) override {
    LayerReport report;
    Json& layers = report.layers;
    Json& span_metrics = report.span_metrics;
    const double n = traced_ops > 0 ? static_cast<double>(traced_ops) : 1.0;
    const PolicyProbe& probe = policy_probe();
    layers["core.replay_sim_ms"] = replay_sim_ms_ / n;
    layers["core.replay_other_ms"] = replay_other_ms_ / n;
    layers["core.power_mape_pct"] = reference_.power_score.mape_pct;
    layers["telemetry.next_calls"] = static_cast<double>(next_calls_) / n;
    layers["telemetry.decoded_mb"] = static_cast<double>(decoded_bytes_) / n / (1024.0 * 1024.0);
    layers["telemetry.peak_resident_mb"] =
        static_cast<double>(peak_resident_bytes_) / (1024.0 * 1024.0);
    layers["raps.jobs_completed"] = static_cast<double>(reference_.report.jobs_completed);
    layers["raps.max_queue_depth"] = static_cast<double>(max_queue_depth_);
    layers["raps.policy.passes"] = static_cast<double>(probe.passes) / n;
    layers["raps.policy.queue_scanned"] = static_cast<double>(probe.queue_scanned) / n;
    layers["raps.policy.start_attempts"] = static_cast<double>(probe.start_attempts) / n;
    layers["raps.policy.starts"] = static_cast<double>(probe.starts) / n;
    span_metrics["telemetry.open_ms"] = "telemetry.open";
    span_metrics["telemetry.next_ms"] = "telemetry.next";
    span_metrics["raps.policy.schedule_ms"] = "raps.policy.schedule";
    return report;
  }

 private:
  Tracer& tracer_;
  std::string dir_;
  std::uint32_t span_open_ = 0;
  std::uint32_t span_replay_ = 0;
  std::uint32_t span_next_ = 0;
  std::uint32_t span_decorator_ = 0;
  SystemConfig config_;
  SystemConfig traced_config_;
  PowerReplayResult reference_;
  double replay_sim_ms_ = 0.0;
  double replay_other_ms_ = 0.0;
  long long next_calls_ = 0;
  std::size_t decoded_bytes_ = 0;
  std::size_t peak_resident_bytes_ = 0;
  int max_queue_depth_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_stream_replay(Tracer& tracer, const std::string& scratch_dir) {
  return std::make_unique<StreamReplay>(tracer, scratch_dir);
}

}  // namespace perfbench
