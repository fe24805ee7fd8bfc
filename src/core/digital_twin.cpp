#include "core/digital_twin.hpp"

#include "common/error.hpp"
#include "common/units.hpp"

namespace exadigit {

DigitalTwin::DigitalTwin(const SystemConfig& config)
    : DigitalTwin(config, DigitalTwinOptions{}) {}

DigitalTwin::DigitalTwin(const SystemConfig& config, const DigitalTwinOptions& options)
    : config_(config),
      engine_(config, RapsEngine::Options{options.start_time_s, options.collect_series,
                                          options.power_eval}),
      collect_series_(options.collect_series) {
  if (options.enable_cooling) {
    fmu_ = std::make_unique<CoolingFmu>(config);
    fmu_->plant().reset(options.ambient_c);
    cooling_synced_s_ = options.start_time_s;
    cdu_series_.resize(static_cast<std::size_t>(config_.cdu_count));
    cdu_power_series_.resize(static_cast<std::size_t>(config_.cdu_count));
    engine_.set_cooling_callback(
        [this](RapsEngine&, double now_s) { on_cooling_quantum(now_s); });
  }
  // Options seed both the plant temperature and the constant wet bulb so a
  // twin with no explicit ambient is internally consistent.
  wetbulb_constant_ = options.ambient_c;
}

void DigitalTwin::set_wetbulb_series(TimeSeries series) {
  require(!series.empty(), "wetbulb series must be non-empty");
  wetbulb_series_ = std::move(series);
}

void DigitalTwin::append_wetbulb_samples(const std::vector<double>& times,
                                         const std::vector<double>& values) {
  require(times.size() == values.size(), "wetbulb sample arrays must be equally sized");
  if (times.empty()) return;
  if (!wetbulb_series_.has_value()) wetbulb_series_.emplace();
  for (std::size_t i = 0; i < times.size(); ++i) {
    wetbulb_series_->push_back(times[i], values[i]);
  }
}

void DigitalTwin::set_wetbulb_constant(double wetbulb_c) {
  wetbulb_series_.reset();
  wetbulb_constant_ = wetbulb_c;
}

double DigitalTwin::wetbulb_at(double t_s) const {
  return wetbulb_series_.has_value() ? wetbulb_series_->at(t_s) : wetbulb_constant_;
}

CoolingFmu& DigitalTwin::cooling() {
  require(fmu_ != nullptr, "cooling model is disabled for this twin");
  return *fmu_;
}

const CoolingFmu& DigitalTwin::cooling() const {
  require(fmu_ != nullptr, "cooling model is disabled for this twin");
  return *fmu_;
}

void DigitalTwin::on_cooling_quantum(double now_s) {
  // Step the plant by the simulated time it has not yet covered — exactly
  // one cooling quantum on the grid, the partial tail on a flush. The old
  // fixed-quantum step left the plant clock short of sim time (dropping the
  // tail heat) whenever t_end fell off the cooling grid.
  const double dt = now_s - cooling_synced_s_;
  if (dt <= 1e-9) return;
  // Per-CDU heat = wall power * cooling efficiency (the same product
  // RapsPowerModel::cdu_heat_w returns), computed into a reused scratch so
  // the per-quantum callback does not allocate.
  const std::vector<double>& cdu_wall = engine_.power_model().cdu_wall_power_w();
  heat_scratch_.resize(cdu_wall.size());
  for (std::size_t i = 0; i < cdu_wall.size(); ++i) {
    heat_scratch_[i] = cdu_wall[i] * config_.cooling.cooling_efficiency;
  }
  const std::vector<double>& heat = heat_scratch_;
  const double p_system = engine_.power().system_power_w;
  for (std::size_t i = 0; i < heat.size(); ++i) {
    fmu_->set_real(static_cast<ValueRef>(i), heat[i]);
  }
  fmu_->set_by_name("wetbulb_c", wetbulb_at(now_s));
  fmu_->set_by_name("system_power_w", p_system);
  fmu_->do_step(now_s, dt);
  cooling_synced_s_ = now_s;

  if (!collect_series_) return;
  const PlantOutputs& out = fmu_->outputs();
  pue_series_.push_back(now_s, out.pue);
  htws_series_.push_back(now_s, out.pri_supply_t_c);
  pri_return_series_.push_back(now_s, out.pri_return_t_c);
  pri_dp_series_.push_back(now_s, out.pri_dp_pa);
  // Cooling efficiency eta_cooling = H / P_system (paper Section IV-1).
  double total_heat = 0.0;
  for (const double h : heat) total_heat += h;
  cooling_eff_series_.push_back(now_s, p_system > 0.0 ? total_heat / p_system : 0.0);
  for (std::size_t i = 0; i < cdu_series_.size(); ++i) {
    const CduOutputs& c = out.cdus[i];
    cdu_series_[i].pri_flow_gpm.push_back(now_s, units::gpm_from_m3s(c.pri_flow_m3s));
    cdu_series_[i].sec_flow_gpm.push_back(now_s, units::gpm_from_m3s(c.sec_flow_m3s));
    cdu_series_[i].return_temp_c.push_back(now_s, c.pri_return_t_c);
    cdu_series_[i].supply_temp_c.push_back(now_s, c.sec_supply_t_c);
    cdu_series_[i].pump_power_w.push_back(now_s, c.pump_power_w);
    cdu_power_series_[i].push_back(now_s, cdu_wall[i]);
  }
}

void DigitalTwin::run_until(double t_end_s) {
  engine_.run_until(t_end_s);
  // Flush a final partial plant step when t_end is off the cooling grid
  // (the last quantum callback fired before t_end); on-grid ends are
  // already synced and this is a no-op.
  if (fmu_ != nullptr) on_cooling_quantum(engine_.now_s());
}

}  // namespace exadigit
