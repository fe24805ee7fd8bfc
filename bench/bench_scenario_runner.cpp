/// Scenario-runner scaling bench: the paper's "days in parallel on a single
/// Frontier node" claim, restated for declarative batches. Runs the same
/// 8-scenario what-if batch serially (--jobs 1) and on every hardware thread
/// and reports the wall-clock speedup plus per-scenario determinism (the
/// concurrent batch must reproduce the serial one bit-for-bit).

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "scenario/scenario_runner.hpp"

using namespace exadigit;

namespace {

std::vector<ScenarioSpec> make_batch() {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 8; ++i) {
    ScenarioSpec spec;
    spec.type = i % 2 == 0 ? "whatif_dc380" : "whatif_smart_rectifiers";
    spec.name = spec.type + "-" + std::to_string(i);
    spec.horizon_hours = 1.0;
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

double run_timed(int jobs, std::vector<ScenarioResult>& results) {
  ScenarioRunner::Options options;
  options.jobs = jobs;
  const auto start = std::chrono::steady_clock::now();
  results = ScenarioRunner(options).run(make_batch());
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("scenario-runner scaling, 8 what-if scenarios, %u hardware threads\n\n", hw);

  std::vector<ScenarioResult> serial, parallel;
  const double t_serial = run_timed(1, serial);
  const double t_parallel = run_timed(0, parallel);

  bool identical = serial.size() == parallel.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].status == ScenarioResult::Status::kDone &&
                parallel[i].status == ScenarioResult::Status::kDone &&
                serial[i].metric("delta_eta") == parallel[i].metric("delta_eta") &&
                serial[i].metric("annual_savings_usd") ==
                    parallel[i].metric("annual_savings_usd");
  }

  AsciiTable t({"Configuration", "Wall (s)", "Scenarios/s"});
  t.add_row({"--jobs 1 (serial)", AsciiTable::num(t_serial, 2),
             AsciiTable::num(8.0 / t_serial, 2)});
  t.add_row({"--jobs 0 (pool)", AsciiTable::num(t_parallel, 2),
             AsciiTable::num(8.0 / t_parallel, 2)});
  std::printf("%s", t.render().c_str());
  std::printf("\nspeedup: %.2fx | concurrent == serial: %s\n", t_serial / t_parallel,
              identical ? "yes" : "NO — determinism bug");
  return identical ? 0 : 1;
}
