/// Determinism fences: a digital twin used for forensic diagnostics must
/// produce bit-identical results for identical inputs — replays are
/// evidence. These tests pin the whole stack (workload generation, engine,
/// plant, FMU, physical twin) to byte-reproducibility and verify that the
/// coupled twin's results do not depend on chunked vs monolithic stepping.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/digital_twin.hpp"
#include "core/physical_twin.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

TEST(DeterminismTest, CoupledRunsBitIdentical) {
  const SystemConfig config = frontier_system_config();
  auto run = [&config]() {
    DigitalTwin twin(config);
    twin.set_wetbulb_constant(16.0);
    WorkloadGenerator gen(config.workload, config, Rng(77));
    twin.submit_all(gen.generate(0.0, 2.0 * units::kSecondsPerHour));
    twin.run_until(2.0 * units::kSecondsPerHour);
    return std::make_pair(twin.engine().power_series_mw().values(),
                          twin.pue_series().values());
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    EXPECT_EQ(a.first[i], b.first[i]) << "power sample " << i;
  }
  for (std::size_t i = 0; i < a.second.size(); ++i) {
    EXPECT_EQ(a.second[i], b.second[i]) << "pue sample " << i;
  }
}

TEST(DeterminismTest, ChunkedRunMatchesMonolithic) {
  // run_until(T) in one call vs many small calls must land on the same
  // state: nothing in the engine may depend on the observation schedule.
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator gen(config.workload, config, Rng(78));
  const auto jobs = gen.generate(0.0, 3600.0);

  DigitalTwin mono(config);
  mono.set_wetbulb_constant(16.0);
  mono.submit_all(jobs);
  mono.run_until(3600.0);

  DigitalTwin chunked(config);
  chunked.set_wetbulb_constant(16.0);
  chunked.submit_all(jobs);
  for (int t = 60; t <= 3600; t += 60) chunked.run_until(static_cast<double>(t));

  EXPECT_EQ(mono.engine().power().system_power_w,
            chunked.engine().power().system_power_w);
  EXPECT_EQ(mono.engine().jobs_completed(), chunked.engine().jobs_completed());
  EXPECT_EQ(mono.cooling().outputs().pue, chunked.cooling().outputs().pue);
  EXPECT_EQ(mono.cooling().outputs().pri_supply_t_c,
            chunked.cooling().outputs().pri_supply_t_c);

  // Every recorded channel, bit for bit: the chunked run appends its rows
  // over 60 calls (and grows the series storage between them), the
  // monolithic run in one.
  auto expect_same = [](const TimeSeries& a, const TimeSeries& b, const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.time(i), b.time(i)) << what << " time " << i;
      EXPECT_EQ(a.value(i), b.value(i)) << what << " value " << i;
    }
  };
  const TimeSeries pue = mono.pue_series();
  EXPECT_EQ(pue.size(), 240u);  // one row per 15 s quantum
  expect_same(pue, chunked.pue_series(), "pue");
  expect_same(mono.htws_temp_series(), chunked.htws_temp_series(), "htws");
  expect_same(mono.pri_return_temp_series(), chunked.pri_return_temp_series(),
              "pri_return");
  expect_same(mono.htw_supply_pressure_series(), chunked.htw_supply_pressure_series(),
              "pri_dp");
  expect_same(mono.cooling_efficiency_series(), chunked.cooling_efficiency_series(),
              "cooling_eff");
  const std::vector<CduSeries> mono_cdus = mono.cdu_series();
  const std::vector<CduSeries> chunked_cdus = chunked.cdu_series();
  const std::vector<TimeSeries> mono_power = mono.cdu_rack_power_series();
  const std::vector<TimeSeries> chunked_power = chunked.cdu_rack_power_series();
  ASSERT_EQ(mono_cdus.size(), 25u);
  ASSERT_EQ(chunked_cdus.size(), 25u);
  ASSERT_EQ(mono_power.size(), 25u);
  ASSERT_EQ(chunked_power.size(), 25u);
  for (std::size_t i = 0; i < mono_cdus.size(); ++i) {
    const std::string cdu = "cdu " + std::to_string(i) + " ";
    const CduSeries& m = mono_cdus[i];
    const CduSeries& c = chunked_cdus[i];
    expect_same(m.pri_flow_gpm, c.pri_flow_gpm, cdu + "pri_flow_gpm");
    expect_same(m.sec_flow_gpm, c.sec_flow_gpm, cdu + "sec_flow_gpm");
    expect_same(m.return_temp_c, c.return_temp_c, cdu + "return_temp_c");
    expect_same(m.supply_temp_c, c.supply_temp_c, cdu + "supply_temp_c");
    expect_same(m.pump_power_w, c.pump_power_w, cdu + "pump_power_w");
    expect_same(mono_power[i], chunked_power[i], cdu + "rack_power_w");
    EXPECT_EQ(m.pri_flow_gpm.times(), pue.times()) << cdu << "shares the pue time axis";
  }
}

TEST(DeterminismTest, PhysicalTwinDatasetsBitIdentical) {
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator gen(config.workload, config, Rng(79));
  const auto jobs = gen.generate(0.0, 3600.0);
  const TimeSeries wetbulb =
      TimeSeries::uniform(0.0, 60.0, std::vector<double>(62, 14.0));
  auto record = [&]() {
    SyntheticPhysicalTwin twin(config, PhysicalTwinOptions{});
    return twin.record(jobs, wetbulb, 3600.0);
  };
  const TelemetryDataset a = record();
  const TelemetryDataset b = record();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].fixed_start_time_s, b.jobs[i].fixed_start_time_s);
  }
  ASSERT_EQ(a.measured_system_power_w.size(), b.measured_system_power_w.size());
  for (std::size_t i = 0; i < a.measured_system_power_w.size(); ++i) {
    EXPECT_EQ(a.measured_system_power_w.value(i), b.measured_system_power_w.value(i));
  }
}

/// Seeds sweep: different seeds must actually produce different workloads
/// (no accidental seed-ignoring), while each seed stays self-consistent.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, SeedChangesWorkloadDeterministically) {
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator a(config.workload, config, Rng(GetParam()));
  WorkloadGenerator b(config.workload, config, Rng(GetParam()));
  WorkloadGenerator c(config.workload, config, Rng(GetParam() + 1));
  const auto ja = a.generate(0.0, 7200.0);
  const auto jb = b.generate(0.0, 7200.0);
  const auto jc = c.generate(0.0, 7200.0);
  ASSERT_EQ(ja.size(), jb.size());
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].submit_time_s, jb[i].submit_time_s);
    EXPECT_EQ(ja[i].node_count, jb[i].node_count);
  }
  bool differs = jc.size() != ja.size();
  for (std::size_t i = 0; !differs && i < std::min(ja.size(), jc.size()); ++i) {
    differs = ja[i].submit_time_s != jc[i].submit_time_s;
  }
  EXPECT_TRUE(differs) << "seed " << GetParam() << "+1 produced an identical workload";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 42u, 1000u, 99999u));

}  // namespace
}  // namespace exadigit
