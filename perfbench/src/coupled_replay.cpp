/// coupled_replay: the paper's Fig. 9 day (synthetic Frontier mix plus the
/// HPL campaign) recorded by SyntheticPhysicalTwin and replayed in memory
/// through the coupled twin with the default config. Cooling and coupling
/// own most of the wall time; there is no telemetry decode and the replayed
/// jobs bypass the scheduler queue.
///
/// Untraced operations run DigitalTwin. Traced operations compose the same
/// twin from RapsEngine::set_cooling_callback and a CoolingFmu so that the
/// benchmark can put spans around the engine, the coupling callback and
/// the FMU step; both must agree bit for bit with the set-up reference on
/// energy, every PUE sample, plant steps and the power score.

#include <vector>

#include "common/units.hpp"
#include "core/digital_twin.hpp"
#include "core/replay.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "policy_probe.hpp"

namespace perfbench {

namespace {

using namespace exadigit;

constexpr double kWindowS = 24.0 * 3600.0;
constexpr double kMeanArrivalS = 70.0;

struct CoupledOutputs {
  Report report;
  TimeSeries pue;
  long long plant_steps = 0;
  double mape_pct = 0.0;
};

bool same_series(const TimeSeries& a, const TimeSeries& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.time(i) != b.time(i) || a.value(i) != b.value(i)) return false;
  }
  return true;
}

class CoupledReplay final : public Workload {
 public:
  explicit CoupledReplay(Tracer& tracer) : tracer_(tracer) {
    span_build_ = tracer_.intern("core.build");
    span_submit_ = tracer_.intern("core.submit");
    span_run_ = tracer_.intern("raps.run_until");
    span_coupling_ = tracer_.intern("core.coupling");
    span_do_step_ = tracer_.intern("fmi.do_step");
    span_series_ = tracer_.intern("core.record_series");
    span_score_ = tracer_.intern("core.score");
  }

  void setup(std::uint64_t seed) override {
    config_ = frontier_system_config();
    dataset_ = record_frontier_window(config_, seed, kWindowS, kMeanArrivalS, true);
    for (std::size_t i = 0; i < dataset_.measured_system_power_w.size(); ++i) {
      measured_mw_.push_back(dataset_.measured_system_power_w.time(i),
                             units::mw_from_watts(dataset_.measured_system_power_w.value(i)));
    }
    traced_config_ = config_;
    traced_config_.scheduler.policy = register_policy_probe(tracer_, config_.scheduler.policy);
    reference_ = run_twin();
  }

  OpOutcome run_op(bool traced) override {
    const CoupledOutputs out = traced ? run_composed() : run_twin();
    OpOutcome outcome;
    outcome.sim_seconds = dataset_.duration_s;
    if (out.report.total_energy_mwh != reference_.report.total_energy_mwh ||
        out.report.jobs_completed != reference_.report.jobs_completed ||
        out.plant_steps != reference_.plant_steps || out.mape_pct != reference_.mape_pct ||
        !same_series(out.pue, reference_.pue)) {
      outcome.fail(traced ? "composed twin diverged from DigitalTwin"
                          : "repeat DigitalTwin replay diverged");
    }
    return outcome;
  }

  LayerReport report_layers(std::size_t traced_ops) override {
    LayerReport report;
    Json& layers = report.layers;
    Json& span_metrics = report.span_metrics;
    const double n = traced_ops > 0 ? static_cast<double>(traced_ops) : 1.0;
    const PolicyProbe& probe = policy_probe();
    layers["fmi.do_step_calls"] = static_cast<double>(do_step_calls_) / n;
    layers["cooling.plant_steps"] = static_cast<double>(last_.plant_steps);
    layers["cooling.solves_performed"] = static_cast<double>(last_.hydraulics.solves_performed);
    layers["cooling.solves_reused"] = static_cast<double>(last_.hydraulics.solves_reused());
    const double solves =
        static_cast<double>(last_.hydraulics.solves_performed + last_.hydraulics.solves_reused());
    layers["cooling.solve_reuse_ratio"] =
        solves > 0.0 ? static_cast<double>(last_.hydraulics.solves_reused()) / solves : 0.0;
    layers["cooling.hx_evaluated"] = static_cast<double>(last_.hx_evaluated);
    layers["core.power_mape_pct"] = reference_.mape_pct;
    layers["raps.jobs_completed"] = static_cast<double>(reference_.report.jobs_completed);
    layers["raps.max_queue_depth"] = static_cast<double>(reference_.report.max_queue_depth);
    layers["raps.policy.passes"] = static_cast<double>(probe.passes) / n;
    layers["raps.policy.queue_scanned"] = static_cast<double>(probe.queue_scanned) / n;
    layers["raps.policy.start_attempts"] = static_cast<double>(probe.start_attempts) / n;
    layers["raps.policy.starts"] = static_cast<double>(probe.starts) / n;
    span_metrics["fmi.do_step_ms"] = "fmi.do_step";
    span_metrics["core.coupling_ms"] = "core.coupling";
    span_metrics["core.record_series_ms"] = "core.record_series";
    span_metrics["raps.run_until_self_ms"] = "raps.run_until";
    span_metrics["raps.policy.schedule_ms"] = "raps.policy.schedule";
    return report;
  }

 private:
  struct LastComposed {
    long long plant_steps = 0;
    CoolingPlantModel::HydraulicsStats hydraulics;
    long long hx_evaluated = 0;
  };

  /// The product path: DigitalTwin, as replay_power drives it, plus scoring.
  CoupledOutputs run_twin() const {
    DigitalTwinOptions options;
    options.enable_cooling = true;
    options.start_time_s = dataset_.start_time_s;
    DigitalTwin twin(config_, options);
    twin.set_wetbulb_series(dataset_.wetbulb_c);
    twin.submit_all(dataset_.jobs);
    twin.run_until(dataset_.start_time_s + dataset_.duration_s);
    CoupledOutputs out;
    out.report = twin.report();
    out.pue = twin.pue_series();
    out.plant_steps = twin.cooling().plant().step_count();
    out.mape_pct = score_series(twin.engine().power_series_mw(), measured_mw_,
                                config_.simulation.cooling_quantum_s)
                       .mape_pct;
    return out;
  }

  /// The same twin composed from its parts, with a span at each boundary.
  /// The cooling callback repeats DigitalTwin::on_cooling_quantum step for
  /// step, series recording included, so the two cost the same.
  CoupledOutputs run_composed() {
    const double start = dataset_.start_time_s;
    tracer_.begin(span_build_);
    RapsEngine::Options engine_options;
    engine_options.start_time_s = start;
    RapsEngine engine(traced_config_, engine_options);
    CoolingFmu fmu(traced_config_);
    fmu.plant().reset(DigitalTwinOptions{}.ambient_c);
    const TimeSeries& wetbulb = dataset_.wetbulb_c;
    const double efficiency = traced_config_.cooling.cooling_efficiency;
    const auto cdus = static_cast<std::size_t>(traced_config_.cdu_count);
    double synced = start;
    long long do_steps = 0;
    std::vector<double> heat;
    TimeSeries pue, htws, pri_return, pri_dp, cooling_eff;
    std::vector<CduSeries> cdu_series(cdus);
    std::vector<TimeSeries> cdu_power(cdus);
    auto step_plant = [&](double now_s) {
      const double dt = now_s - synced;
      if (dt <= 1e-9) return;
      const std::vector<double>& cdu_wall = engine.power_model().cdu_wall_power_w();
      heat.resize(cdu_wall.size());
      for (std::size_t i = 0; i < cdu_wall.size(); ++i) heat[i] = cdu_wall[i] * efficiency;
      const double p_system = engine.power().system_power_w;
      for (std::size_t i = 0; i < heat.size(); ++i) {
        fmu.set_real(static_cast<ValueRef>(i), heat[i]);
      }
      fmu.set_by_name("wetbulb_c", wetbulb.at(now_s));
      fmu.set_by_name("system_power_w", p_system);
      tracer_.begin(span_do_step_);
      fmu.do_step(now_s, dt);
      tracer_.end();
      ++do_steps;
      synced = now_s;

      ScopedSpan record(tracer_, span_series_);
      const PlantOutputs& o = fmu.outputs();
      pue.push_back(now_s, o.pue);
      htws.push_back(now_s, o.pri_supply_t_c);
      pri_return.push_back(now_s, o.pri_return_t_c);
      pri_dp.push_back(now_s, o.pri_dp_pa);
      double total_heat = 0.0;
      for (const double h : heat) total_heat += h;
      cooling_eff.push_back(now_s, p_system > 0.0 ? total_heat / p_system : 0.0);
      for (std::size_t i = 0; i < cdus; ++i) {
        const CduOutputs& c = o.cdus[i];
        cdu_series[i].pri_flow_gpm.push_back(now_s, units::gpm_from_m3s(c.pri_flow_m3s));
        cdu_series[i].sec_flow_gpm.push_back(now_s, units::gpm_from_m3s(c.sec_flow_m3s));
        cdu_series[i].return_temp_c.push_back(now_s, c.pri_return_t_c);
        cdu_series[i].supply_temp_c.push_back(now_s, c.sec_supply_t_c);
        cdu_series[i].pump_power_w.push_back(now_s, c.pump_power_w);
        cdu_power[i].push_back(now_s, cdu_wall[i]);
      }
    };
    engine.set_cooling_callback([&](RapsEngine&, double now_s) {
      ScopedSpan span(tracer_, span_coupling_);
      step_plant(now_s);
    });
    tracer_.end();

    tracer_.begin(span_submit_);
    engine.submit_all(dataset_.jobs);
    tracer_.end();
    tracer_.begin(span_run_);
    engine.run_until(start + dataset_.duration_s);
    tracer_.end();
    tracer_.begin(span_coupling_);
    step_plant(engine.now_s());
    tracer_.end();

    CoupledOutputs out;
    tracer_.begin(span_score_);
    out.mape_pct = score_series(engine.power_series_mw(), measured_mw_,
                                traced_config_.simulation.cooling_quantum_s)
                       .mape_pct;
    tracer_.end();
    out.report = engine.report();
    out.pue = std::move(pue);
    out.plant_steps = fmu.plant().step_count();
    do_step_calls_ += do_steps;
    last_.plant_steps = out.plant_steps;
    last_.hydraulics = fmu.plant().hydraulics_stats();
    last_.hx_evaluated = fmu.plant().thermal_stats().hx_evaluated;
    return out;
  }

  Tracer& tracer_;
  std::uint32_t span_build_ = 0;
  std::uint32_t span_submit_ = 0;
  std::uint32_t span_run_ = 0;
  std::uint32_t span_coupling_ = 0;
  std::uint32_t span_do_step_ = 0;
  std::uint32_t span_series_ = 0;
  std::uint32_t span_score_ = 0;
  SystemConfig config_;
  SystemConfig traced_config_;
  TelemetryDataset dataset_;
  TimeSeries measured_mw_;
  CoupledOutputs reference_;
  long long do_step_calls_ = 0;
  LastComposed last_;
};

}  // namespace

std::unique_ptr<Workload> make_coupled_replay(Tracer& tracer) {
  return std::make_unique<CoupledReplay>(tracer);
}

}  // namespace perfbench
