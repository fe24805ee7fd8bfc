#include "core/digital_twin.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace exadigit {

namespace {

// The series frame's row layout, named once for the recorder and the
// accessors: the time, the system channels, then kCduColumns per CDU.
enum SystemColumn : std::size_t {
  kTime,
  kPue,
  kHtws,
  kPriReturn,
  kPriDp,
  kCoolingEff,
  kSystemColumns
};
enum CduColumn : std::size_t {
  kPriFlowGpm,
  kSecFlowGpm,
  kReturnTempC,
  kSupplyTempC,
  kPumpPowerW,
  kRackPowerW,
  kCduColumns
};

/// Column of CDU `cdu`'s first channel; width of a row holding `cdu` CDUs.
constexpr std::size_t cdu_base(std::size_t cdu) { return kSystemColumns + cdu * kCduColumns; }

}  // namespace

DigitalTwin::DigitalTwin(const SystemConfig& config)
    : DigitalTwin(config, DigitalTwinOptions{}) {}

DigitalTwin::DigitalTwin(const SystemConfig& config, const DigitalTwinOptions& options)
    : config_(config),
      engine_(config, RapsEngine::Options{options.start_time_s, options.collect_series,
                                          options.power_eval, options.engine}),
      collect_series_(options.collect_series) {
  if (options.enable_cooling) {
    fmu_ = std::make_unique<CoolingFmu>(config);
    fmu_->plant().reset(options.ambient_c);
    cooling_synced_s_ = options.start_time_s;
    if (collect_series_) {
      series_width_ = cdu_base(static_cast<std::size_t>(config_.cdu_count));
    }
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
  // exadigit-hot-begin(coupled-record)
  // One row per plant step, appended into the frame run_until reserved.
  const PlantOutputs& out = fmu_->outputs();
  const std::size_t base = series_rows_.size();
  series_rows_.resize(base + series_width_);
  double* row = series_rows_.data() + base;
  row[kTime] = now_s;
  row[kPue] = out.pue;
  row[kHtws] = out.pri_supply_t_c;
  row[kPriReturn] = out.pri_return_t_c;
  row[kPriDp] = out.pri_dp_pa;
  // Cooling efficiency eta_cooling = H / P_system (paper Section IV-1).
  double total_heat = 0.0;
  for (const double h : heat) total_heat += h;
  row[kCoolingEff] = p_system > 0.0 ? total_heat / p_system : 0.0;
  for (std::size_t i = 0; i < out.cdus.size(); ++i) {
    const CduOutputs& c = out.cdus[i];
    double* cdu = row + cdu_base(i);
    cdu[kPriFlowGpm] = units::gpm_from_m3s(c.pri_flow_m3s);
    cdu[kSecFlowGpm] = units::gpm_from_m3s(c.sec_flow_m3s);
    cdu[kReturnTempC] = c.pri_return_t_c;
    cdu[kSupplyTempC] = c.sec_supply_t_c;
    cdu[kPumpPowerW] = c.pump_power_w;
    cdu[kRackPowerW] = cdu_wall[i];
  }
  // exadigit-hot-end
}

void DigitalTwin::reserve_series_rows(double t_end_s) {
  if (series_width_ == 0 || !(t_end_s > engine_.now_s())) return;
  // At most floor(span / quantum) + 1 boundaries fall in (now, t_end], plus
  // one off-grid tail flush.
  const double span = t_end_s - engine_.now_s();
  const auto rows =
      static_cast<std::size_t>(std::floor(span / config_.simulation.cooling_quantum_s)) + 2;
  const std::size_t want = series_rows_.size() + rows * series_width_;
  if (want > series_rows_.capacity()) {
    series_rows_.reserve(std::max(want, 2 * series_rows_.capacity()));
  }
}

TimeSeries DigitalTwin::column_series(std::size_t column) const {
  const std::size_t rows = series_width_ == 0 ? 0 : series_rows_.size() / series_width_;
  std::vector<double> times(rows);
  std::vector<double> values(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = series_rows_.data() + r * series_width_;
    times[r] = row[kTime];
    values[r] = row[column];
  }
  return TimeSeries(std::move(times), std::move(values));
}

TimeSeries DigitalTwin::pue_series() const { return column_series(kPue); }
TimeSeries DigitalTwin::htws_temp_series() const { return column_series(kHtws); }
TimeSeries DigitalTwin::pri_return_temp_series() const { return column_series(kPriReturn); }
TimeSeries DigitalTwin::htw_supply_pressure_series() const { return column_series(kPriDp); }
TimeSeries DigitalTwin::cooling_efficiency_series() const {
  return column_series(kCoolingEff);
}

std::vector<CduSeries> DigitalTwin::cdu_series() const {
  std::vector<CduSeries> out(fmu_ != nullptr ? static_cast<std::size_t>(config_.cdu_count) : 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].pri_flow_gpm = column_series(cdu_base(i) + kPriFlowGpm);
    out[i].sec_flow_gpm = column_series(cdu_base(i) + kSecFlowGpm);
    out[i].return_temp_c = column_series(cdu_base(i) + kReturnTempC);
    out[i].supply_temp_c = column_series(cdu_base(i) + kSupplyTempC);
    out[i].pump_power_w = column_series(cdu_base(i) + kPumpPowerW);
  }
  return out;
}

std::vector<TimeSeries> DigitalTwin::cdu_rack_power_series() const {
  std::vector<TimeSeries> out(fmu_ != nullptr ? static_cast<std::size_t>(config_.cdu_count)
                                              : 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = column_series(cdu_base(i) + kRackPowerW);
  }
  return out;
}

void DigitalTwin::run_until(double t_end_s) {
  reserve_series_rows(t_end_s);
  engine_.run_until(t_end_s);
  // Flush a final partial plant step when t_end is off the cooling grid
  // (the last quantum callback fired before t_end); on-grid ends are
  // already synced and this is a no-op.
  if (fmu_ != nullptr) on_cooling_quantum(engine_.now_s());
}

}  // namespace exadigit
