#include "core/digital_twin.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace exadigit {
namespace {

TEST(DigitalTwinTest, CoupledRunRecordsAllSeries) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(16.0);
  twin.submit(make_hpl_job(60.0, 1200.0));
  twin.run_until(1800.0);
  EXPECT_FALSE(twin.pue_series().empty());
  EXPECT_FALSE(twin.htws_temp_series().empty());
  EXPECT_FALSE(twin.cooling_efficiency_series().empty());
  EXPECT_EQ(twin.cdu_series().size(), 25u);
  EXPECT_EQ(twin.cdu_series()[0].pri_flow_gpm.size(), twin.pue_series().size());
  EXPECT_EQ(twin.cdu_rack_power_series().size(), 25u);
}

TEST(DigitalTwinTest, CoolingEfficiencyNearConfiguredValue) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(16.0);
  twin.run_until(600.0);
  // eta_cooling = H / P_system; H = 0.945 * rack wall power, so the ratio
  // sits just below 0.945 (CDU pumps are in P_system but not in H).
  const double eta = twin.cooling_efficiency_series().values().back();
  EXPECT_GT(eta, 0.90);
  EXPECT_LT(eta, 0.945);
}

TEST(DigitalTwinTest, CoolingDisabledSkipsFmu) {
  DigitalTwinOptions options;
  options.enable_cooling = false;
  DigitalTwin twin(frontier_system_config(), options);
  twin.run_until(300.0);
  EXPECT_FALSE(twin.cooling_enabled());
  EXPECT_TRUE(twin.pue_series().empty());
  EXPECT_THROW(twin.cooling(), ConfigError);
  // Power side still runs.
  EXPECT_GT(twin.engine().power().system_power_w, 1e6);
}

TEST(DigitalTwinTest, WetbulbSeriesDrivesPlant) {
  // Weather propagates into the loops (the paper's "how weather correlates
  // to GPU temperatures" use case). Run a real load so the plant works.
  SystemConfig config = frontier_system_config();
  DigitalTwin cold(config);
  cold.set_wetbulb_constant(5.0);
  cold.submit(make_hpl_job(10.0, 4.0 * units::kSecondsPerHour));
  cold.run_until(4.0 * units::kSecondsPerHour);
  DigitalTwin hot(config);
  hot.set_wetbulb_constant(24.0);
  hot.submit(make_hpl_job(10.0, 4.0 * units::kSecondsPerHour));
  hot.run_until(4.0 * units::kSecondsPerHour);
  // In hot weather the plant cannot hold its HTW setpoint: supply and rack
  // coolant run warmer than on the cold day.
  EXPECT_GT(hot.cooling().outputs().pri_supply_t_c,
            cold.cooling().outputs().pri_supply_t_c + 1.0);
  EXPECT_GT(hot.cooling().outputs().cdus[0].sec_supply_t_c,
            cold.cooling().outputs().cdus[0].sec_supply_t_c + 0.5);
}

TEST(DigitalTwinTest, WetbulbSeriesInterpolated) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_series(TimeSeries::uniform(0.0, 60.0, std::vector<double>(61, 12.0)));
  EXPECT_NO_THROW(twin.run_until(600.0));
  EXPECT_THROW(twin.set_wetbulb_series(TimeSeries{}), ConfigError);
}

TEST(DigitalTwinTest, HplStepShowsThermalLag) {
  // Fig. 8's shape: power steps immediately, the primary return
  // temperature follows with a lag of minutes.
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(16.0);
  twin.run_until(1800.0);  // settle at idle
  const double t_before = twin.cooling().outputs().pri_return_t_c;
  twin.submit(make_hpl_job(1805.0, 1800.0));
  twin.run_until(1800.0 + 60.0);  // one minute into the run
  const double p_early = twin.engine().power().system_power_w;
  const double t_early = twin.cooling().outputs().pri_return_t_c;
  EXPECT_GT(p_early, 20.0e6);          // power is already up
  EXPECT_LT(t_early - t_before, 4.0);  // temperature still mid-transient
  twin.run_until(1800.0 + 1500.0);
  const double t_settled = twin.cooling().outputs().pri_return_t_c;
  EXPECT_GT(t_settled, t_before + 3.0);
  EXPECT_GT(t_settled, t_early + 1.0);  // kept rising after the first minute
}

TEST(DigitalTwinTest, ReportMatchesEngine) {
  DigitalTwin twin(frontier_system_config());
  twin.run_until(900.0);
  EXPECT_DOUBLE_EQ(twin.report().avg_power_mw, twin.engine().report().avg_power_mw);
}

/// Regression for the cooling tail flush: a run whose t_end is off the
/// 15 s cooling grid used to leave the plant clock short of sim time,
/// silently dropping the tail heat (the cooling twin of the power-side
/// tail-flush bug). The plant clock must now equal sim time at the end of
/// every run_until, including resumed runs.
TEST(DigitalTwinTest, CoolingClockMatchesSimEndOffGrid) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(16.0);
  twin.submit(make_hpl_job(5.0, 400.0));

  twin.run_until(100.0);  // 100 = 6*15 + 10: off the cooling grid
  EXPECT_NEAR(twin.cooling().plant().time_s(), 100.0, 1e-9);
  // The flush records the partial-step outputs at t_end.
  EXPECT_DOUBLE_EQ(twin.pue_series().times().back(), 100.0);

  // Resume across the next boundary: the first callback covers only the
  // remaining 5 s to the 105 s boundary, never double-stepping.
  twin.run_until(130.0);
  EXPECT_NEAR(twin.cooling().plant().time_s(), 130.0, 1e-9);
  EXPECT_DOUBLE_EQ(twin.pue_series().times().back(), 130.0);

  // On-grid end: the quantum callback already synced the plant and the
  // flush is a no-op (no duplicate series sample).
  twin.run_until(150.0);
  EXPECT_NEAR(twin.cooling().plant().time_s(), 150.0, 1e-9);
  const TimeSeries& pue = twin.pue_series();
  EXPECT_DOUBLE_EQ(pue.times().back(), 150.0);
  ASSERT_GE(pue.size(), 2u);
  EXPECT_LT(pue.times()[pue.size() - 2], 150.0);
}

/// An off-grid tail must contribute its heat: two runs differing only in a
/// 10 s tail beyond the last boundary see different plant states.
TEST(DigitalTwinTest, OffGridTailHeatNotDropped) {
  SystemConfig config = frontier_system_config();
  auto make_loaded_twin = [&config] {
    DigitalTwin twin(config);
    twin.set_wetbulb_constant(16.0);
    twin.submit(make_hpl_job(5.0, 2000.0));
    return twin;
  };
  DigitalTwin on_grid = make_loaded_twin();
  on_grid.run_until(900.0);
  DigitalTwin with_tail = make_loaded_twin();
  with_tail.run_until(910.0);
  EXPECT_NEAR(on_grid.cooling().plant().time_s(), 900.0, 1e-9);
  EXPECT_NEAR(with_tail.cooling().plant().time_s(), 910.0, 1e-9);
  // Mid-HPL the loops are heating: 10 extra seconds of heat moves the
  // secondary return temperature.
  EXPECT_NE(with_tail.cooling().outputs().cdus[0].sec_return_t_c,
            on_grid.cooling().outputs().cdus[0].sec_return_t_c);
}

/// Reference-path A/B at the twin level. The references are C++ selectors,
/// not config: DigitalTwinOptions::engine (forwarded to RapsEngine) picks the
/// fixed-step tick loop, CoolingPlantModel::set_hydraulics_eval the
/// always-solve hydraulics. A coupled run under either must reproduce the
/// default run's report and every recorded channel bit for bit.
struct CoupledRun {
  Report report;
  std::vector<TimeSeries> channels;
  CoolingPlantModel::HydraulicsStats hydraulics;
};

CoupledRun run_coupled(const DigitalTwinOptions& options, HydraulicsEval hydraulics) {
  const SystemConfig config = frontier_system_config();
  const double duration = 2.0 * units::kSecondsPerHour;
  DigitalTwin twin(config, options);
  twin.cooling().plant().set_hydraulics_eval(hydraulics);
  // A wet-bulb swing and an HPL step on a synthetic mix: staging churn.
  TimeSeries wetbulb;
  for (double t = 0.0; t <= duration; t += 60.0) {
    wetbulb.push_back(t, 14.0 + 8.0 * std::sin(t / 1500.0));
  }
  twin.set_wetbulb_series(std::move(wetbulb));
  WorkloadGenerator gen(config.workload, config, Rng(11));
  twin.submit_all(gen.generate(0.0, duration));
  twin.submit(make_hpl_job(0.4 * duration, 1800.0));
  twin.run_until(duration);

  CoupledRun r;
  r.report = twin.report();
  const RapsEngine& engine = twin.engine();
  r.channels = {engine.power_series_mw(),      engine.loss_series_mw(),
                engine.utilization_series(),   engine.eta_series(),
                twin.pue_series(),             twin.htws_temp_series(),
                twin.pri_return_temp_series(), twin.htw_supply_pressure_series(),
                twin.cooling_efficiency_series()};
  for (CduSeries& cdu : twin.cdu_series()) {
    for (TimeSeries* s : {&cdu.pri_flow_gpm, &cdu.sec_flow_gpm, &cdu.return_temp_c,
                          &cdu.supply_temp_c, &cdu.pump_power_w}) {
      r.channels.push_back(std::move(*s));
    }
  }
  for (TimeSeries& s : twin.cdu_rack_power_series()) r.channels.push_back(std::move(s));
  r.hydraulics = twin.cooling().plant().hydraulics_stats();
  return r;
}

void expect_runs_identical(const CoupledRun& a, const CoupledRun& b) {
  const Report& x = a.report;
  const Report& y = b.report;
  EXPECT_EQ(x.duration_s, y.duration_s);
  EXPECT_EQ(x.jobs_submitted, y.jobs_submitted);
  EXPECT_EQ(x.jobs_completed, y.jobs_completed);
  EXPECT_EQ(x.jobs_rejected, y.jobs_rejected);
  EXPECT_EQ(x.max_queue_depth, y.max_queue_depth);
  EXPECT_EQ(x.avg_wait_s, y.avg_wait_s);
  EXPECT_EQ(x.makespan_s, y.makespan_s);
  EXPECT_EQ(x.avg_power_mw, y.avg_power_mw);
  EXPECT_EQ(x.min_power_mw, y.min_power_mw);
  EXPECT_EQ(x.max_power_mw, y.max_power_mw);
  EXPECT_EQ(x.total_energy_mwh, y.total_energy_mwh);
  EXPECT_EQ(x.avg_loss_mw, y.avg_loss_mw);
  EXPECT_EQ(x.max_loss_mw, y.max_loss_mw);
  EXPECT_EQ(x.avg_eta_system, y.avg_eta_system);
  EXPECT_EQ(x.avg_utilization, y.avg_utilization);
  EXPECT_EQ(x.carbon_tons, y.carbon_tons);
  EXPECT_EQ(x.energy_cost_usd, y.energy_cost_usd);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    const TimeSeries& s = a.channels[c];
    const TimeSeries& t = b.channels[c];
    ASSERT_EQ(s.size(), t.size()) << "channel " << c;
    for (std::size_t i = 0; i < s.size(); ++i) {
      ASSERT_EQ(s.time(i), t.time(i)) << "channel " << c << " sample " << i;
      ASSERT_EQ(s.value(i), t.value(i)) << "channel " << c << " sample " << i;
    }
  }
}

TEST(DigitalTwinTest, TickLoopMatchesEventDrivenBitwise) {
  DigitalTwinOptions tick;
  tick.engine = EngineMode::kTickLoop;
  const CoupledRun event = run_coupled(DigitalTwinOptions{}, HydraulicsEval::kDedup);
  ASSERT_GT(event.channels.front().size(), 400u);  // 2 h of 15 s quanta
  expect_runs_identical(event, run_coupled(tick, HydraulicsEval::kDedup));
}

TEST(DigitalTwinTest, AlwaysSolveMatchesDedupBitwise) {
  const CoupledRun dedup = run_coupled(DigitalTwinOptions{}, HydraulicsEval::kDedup);
  const CoupledRun ref = run_coupled(DigitalTwinOptions{}, HydraulicsEval::kAlwaysSolve);
  expect_runs_identical(dedup, ref);
  // The selector took effect: the reference re-solves what dedup reuses.
  EXPECT_GT(dedup.hydraulics.solves_reused(), 0);
  EXPECT_GT(ref.hydraulics.solves_performed, dedup.hydraulics.solves_performed);
}

}  // namespace
}  // namespace exadigit
