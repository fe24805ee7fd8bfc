#pragma once

/// @file digital_twin.hpp
/// The ExaDigiT digital twin: RAPS co-simulated with the cooling FMU.
///
/// This is the paper's integration layer (Fig. 1): the RAPS engine advances
/// event-to-event on a 1 s grid (see raps/engine.hpp), and every 15 s
/// cooling quantum it hands the per-CDU heat load, the ambient wet bulb,
/// and P_system to the cooling FMU, steps it, and records the coupled
/// series (PUE, HTWS temperature, cooling efficiency eta_cooling =
/// H / P_system, per-CDU flows and temperatures). Cooling can be disabled
/// for power-only sweeps — the paper's "three minutes instead of nine"
/// replay path.
///
/// Energy accounting: every run_until(t_end) closes the engine's energy and
/// utilization integrals exactly at t_end (the final partial interval is
/// flushed even off the quantum/tick grid), so report().total_energy_mwh
/// always matches the rectangle integral of the recorded power series.
///
/// Cooling-clock alignment: each quantum callback steps the plant by the
/// simulated time elapsed since the previous plant step (normally exactly
/// one cooling quantum), and run_until(t_end) flushes a final partial plant
/// step when t_end falls off the cooling grid. The plant clock therefore
/// always equals the simulation clock at the end of every run_until — the
/// tail heat between the last quantum boundary and t_end is no longer
/// dropped (the cooling-side twin of the power-model tail-flush fix).
///
/// Series storage: each plant step appends one row to a row-major frame —
/// the time, the 5 system channels and 6 channels per CDU (156 doubles on
/// Frontier), laid out by one column table in digital_twin.cpp that both
/// the recorder and the accessors read. The accessors build their
/// TimeSeries from the frame on every call and return it by value, so read
/// them once after a run, not inside a loop. run_until reserves the rows
/// its horizon needs, growing the frame at least geometrically so chunked
/// replay (one run_until per chunk) never copies it per call.

#include <functional>
#include <memory>
#include <optional>

#include "common/time_series.hpp"
#include "fmi/cooling_fmu.hpp"
#include "raps/engine.hpp"
#include "raps/workload.hpp"

namespace exadigit {

/// Construction options for a twin instance.
struct DigitalTwinOptions {
  bool enable_cooling = true;
  bool collect_series = true;
  double start_time_s = 0.0;
  /// Power-sample evaluation strategy, passed through to RapsEngine —
  /// kFullRecompute re-creates the pre-event-core hot path for legacy
  /// benchmarking of the coupled twin.
  RapsEngine::PowerEval power_eval = RapsEngine::PowerEval::kIncremental;
  /// Time advance, passed through to RapsEngine — kTickLoop runs the
  /// fixed-step validation reference under the coupled twin.
  EngineMode engine = EngineMode::kEventDriven;
  /// Initial plant temperature seed AND the default constant wet bulb.
  /// Precedence for the ambient boundary condition, highest first:
  ///   1. set_wetbulb_series()  — a telemetry/synthetic series;
  ///   2. set_wetbulb_constant() — an explicit constant;
  ///   3. this field.
  double ambient_c = 20.0;
};

/// Per-CDU series recorded during a coupled run.
struct CduSeries {
  TimeSeries pri_flow_gpm;     ///< station 12 primary flow
  TimeSeries sec_flow_gpm;     ///< station 14 secondary flow
  TimeSeries return_temp_c;    ///< station 12 primary return temperature
  TimeSeries supply_temp_c;    ///< station 15 secondary supply temperature
  TimeSeries pump_power_w;
};

/// The coupled supercomputer + central-energy-plant twin.
class DigitalTwin {
 public:
  explicit DigitalTwin(const SystemConfig& config);
  DigitalTwin(const SystemConfig& config, const DigitalTwinOptions& options);

  /// Ambient boundary condition: a wet-bulb series (60 s telemetry) or a
  /// constant; the series wins when both are set. Until either setter is
  /// called the constant is seeded from DigitalTwinOptions::ambient_c.
  void set_wetbulb_series(TimeSeries series);
  void set_wetbulb_constant(double wetbulb_c);

  /// Incremental twin of set_wetbulb_series for chunked replay and live
  /// ingest: appends time-ordered samples to the wet-bulb series, creating
  /// it on the first non-empty batch. Timestamps must strictly increase
  /// across batches. The caller must not run the twin past the last
  /// appended sample time if it intends to append more (the series clamps
  /// at its end, so later samples could no longer affect earlier steps).
  void append_wetbulb_samples(const std::vector<double>& times,
                              const std::vector<double>& values);

  void submit(JobRecord job) { engine_.submit(std::move(job)); }
  void submit_all(std::vector<JobRecord> jobs) { engine_.submit_all(std::move(jobs)); }

  /// Advances the coupled simulation.
  void run_until(double t_end_s);

  [[nodiscard]] RapsEngine& engine() { return engine_; }
  [[nodiscard]] const RapsEngine& engine() const { return engine_; }
  /// The cooling FMU; throws when cooling is disabled.
  [[nodiscard]] CoolingFmu& cooling();
  [[nodiscard]] const CoolingFmu& cooling() const;
  [[nodiscard]] bool cooling_enabled() const { return fmu_ != nullptr; }

  // --- coupled series (cooling quantum resolution), built per call -------
  [[nodiscard]] TimeSeries pue_series() const;
  [[nodiscard]] TimeSeries htws_temp_series() const;
  [[nodiscard]] TimeSeries pri_return_temp_series() const;
  [[nodiscard]] TimeSeries htw_supply_pressure_series() const;
  [[nodiscard]] TimeSeries cooling_efficiency_series() const;
  /// One entry per CDU when cooling is enabled, none otherwise.
  [[nodiscard]] std::vector<CduSeries> cdu_series() const;
  /// Wall power per CDU over time (cooling-model input channel).
  [[nodiscard]] std::vector<TimeSeries> cdu_rack_power_series() const;

  [[nodiscard]] Report report() const { return engine_.report(); }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  SystemConfig config_;
  RapsEngine engine_;
  std::unique_ptr<CoolingFmu> fmu_;
  /// Simulated time the plant has been stepped to; callbacks and the
  /// run_until tail flush step the plant by (now - this), keeping the plant
  /// clock equal to the simulation clock even off the cooling grid.
  double cooling_synced_s_ = 0.0;
  /// Reused per-quantum buffer for the per-CDU heat handed to the FMU.
  std::vector<double> heat_scratch_;
  std::optional<TimeSeries> wetbulb_series_;
  /// Seeded from DigitalTwinOptions::ambient_c at construction (see the
  /// precedence note on that field); never read before then.
  double wetbulb_constant_ = 20.0;
  bool collect_series_;

  /// The coupled series frame: one row of series_width_ doubles per plant
  /// step (see the file comment); width 0 when nothing is recorded.
  std::vector<double> series_rows_;
  std::size_t series_width_ = 0;

  void on_cooling_quantum(double now_s);
  /// Reserves the frame rows a run to `t_end_s` can append.
  void reserve_series_rows(double t_end_s);
  /// Column `column` of the frame against its time column.
  [[nodiscard]] TimeSeries column_series(std::size_t column) const;
  [[nodiscard]] double wetbulb_at(double t_s) const;
};

}  // namespace exadigit
