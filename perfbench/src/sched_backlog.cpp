/// sched_backlog: a power-only RapsEngine run of a synthetic (non-replay)
/// Frontier workload under easy_backfill: a backlog of queued jobs at the
/// start, then arrivals about as fast as the machine drains them, so the
/// queue stays hundreds deep for the whole window. It is the only
/// workload where the scheduling policy does most of the work, and so the
/// only one a scheduler optimisation can move.
///
/// An operation schedules kWindows independent windows, each with its own
/// backlog and arrivals. The cost of one window follows its job sizes (how
/// many backlog jobs the first pass can start, how fast the queue drains)
/// by tens of percent from seed to seed; the sum over several windows
/// varies far less, so runs with different seeds stay comparable.
///
/// Traced operations name the policy probe as the scheduler policy; it
/// delegates to easy_backfill, so the start log must not change.

#include <algorithm>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "policy_probe.hpp"
#include "raps/engine.hpp"
#include "raps/workload.hpp"

namespace perfbench {

namespace {

using namespace exadigit;

constexpr int kWindows = 12;
constexpr double kWindowS = 1200.0;
constexpr int kBacklogJobs = 300;
/// Arrivals are evenly spaced: a Poisson count would add its own spread to
/// the number of scheduling passes.
constexpr double kArrivalS = 45.0;

struct WindowOutputs {
  Report report;
  std::vector<std::pair<std::int64_t, double>> starts;
};

bool same_window(const WindowOutputs& x, const WindowOutputs& y) {
  const Report& a = x.report;
  const Report& b = y.report;
  return x.starts == y.starts && a.jobs_completed == b.jobs_completed &&
         a.jobs_rejected == b.jobs_rejected && a.max_queue_depth == b.max_queue_depth &&
         a.avg_wait_s == b.avg_wait_s && a.makespan_s == b.makespan_s &&
         a.total_energy_mwh == b.total_energy_mwh;
}

class SchedBacklog final : public Workload {
 public:
  explicit SchedBacklog(Tracer& tracer) : tracer_(tracer) {
    span_build_ = tracer_.intern("raps.build");
    span_submit_ = tracer_.intern("raps.submit");
    span_run_ = tracer_.intern("raps.run_until");
  }

  void setup(std::uint64_t seed) override {
    config_ = frontier_system_config();
    config_.scheduler.policy = "easy_backfill";
    for (int w = 0; w < kWindows; ++w) {
      WorkloadGenerator gen(config_.workload, config_,
                            Rng(mix_seed(seed, static_cast<std::uint64_t>(w + 1))));
      std::vector<JobRecord> jobs;
      for (int i = 0; i < kBacklogJobs; ++i) jobs.push_back(gen.draw_job(0.0));
      for (double t = kArrivalS; t < kWindowS; t += kArrivalS) jobs.push_back(gen.draw_job(t));
      windows_.push_back(std::move(jobs));
    }
    traced_config_ = config_;
    traced_config_.scheduler.policy = register_policy_probe(tracer_, config_.scheduler.policy);
    for (const std::vector<JobRecord>& jobs : windows_) reference_.push_back(run(jobs, false));
  }

  OpOutcome run_op(bool traced) override {
    OpOutcome outcome;
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      const WindowOutputs out = run(windows_[w], traced);
      outcome.sim_seconds += kWindowS;
      if (!same_window(out, reference_[w])) {
        outcome.fail(traced ? "probed scheduler run diverged" : "repeat scheduler run diverged");
      }
    }
    return outcome;
  }

  LayerReport report_layers(std::size_t traced_ops) override {
    LayerReport report;
    Json& layers = report.layers;
    Json& span_metrics = report.span_metrics;
    const double n = traced_ops > 0 ? static_cast<double>(traced_ops) : 1.0;
    const PolicyProbe& probe = policy_probe();
    layers["raps.policy.passes"] = static_cast<double>(probe.passes) / n;
    layers["raps.policy.queue_scanned"] = static_cast<double>(probe.queue_scanned) / n;
    layers["raps.policy.start_attempts"] = static_cast<double>(probe.start_attempts) / n;
    layers["raps.policy.starts"] = static_cast<double>(probe.starts) / n;
    int completed = 0;
    int max_depth = 0;
    for (const WindowOutputs& w : reference_) {
      completed += w.report.jobs_completed;
      max_depth = std::max(max_depth, w.report.max_queue_depth);
    }
    layers["raps.jobs_completed"] = static_cast<double>(completed);
    layers["raps.max_queue_depth"] = static_cast<double>(max_depth);
    span_metrics["raps.policy.schedule_ms"] = "raps.policy.schedule";
    span_metrics["raps.run_until_self_ms"] = "raps.run_until";
    return report;
  }

 private:
  WindowOutputs run(const std::vector<JobRecord>& jobs, bool traced) {
    const SystemConfig& config = traced ? traced_config_ : config_;
    tracer_.begin(span_build_);
    RapsEngine engine(config);
    tracer_.end();
    tracer_.begin(span_submit_);
    engine.submit_all(jobs);
    tracer_.end();
    tracer_.begin(span_run_);
    engine.run_until(kWindowS);
    tracer_.end();
    WindowOutputs out;
    out.report = engine.report();
    out.starts.reserve(engine.job_start_log().size());
    for (const JobStartLogEntry& e : engine.job_start_log()) {
      out.starts.emplace_back(e.record.id, e.start_time_s);
    }
    return out;
  }

  Tracer& tracer_;
  std::uint32_t span_build_ = 0;
  std::uint32_t span_submit_ = 0;
  std::uint32_t span_run_ = 0;
  SystemConfig config_;
  SystemConfig traced_config_;
  std::vector<std::vector<JobRecord>> windows_;
  std::vector<WindowOutputs> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_sched_backlog(Tracer& tracer) {
  return std::make_unique<SchedBacklog>(tracer);
}

}  // namespace perfbench
