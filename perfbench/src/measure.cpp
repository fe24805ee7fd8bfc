/// perfbench_measure: runs one workload of the repository benchmark and
/// prints its raw measurements as one JSON object on the last line of
/// standard output. perfbench/run.py builds this program, runs it and
/// reduces the raw measurements to the metrics named in BENCHMARK.json.
///
///   perfbench_measure --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> --out-dir <dir>
///
/// An untraced run splits the --seconds window into kSetupReps blocks;
/// each block builds and sets up a fresh workload (timed), then runs
/// operations on it until the block's share of the window is over. A
/// traced run is one block. The peak resident set is read after each
/// set-up and again after each block's operations, with the high-water
/// mark reset before each phase, so set-up and run report their own
/// peaks, one per block (a traced run's run peak excludes the span
/// buffer).
/// With --trace 1 the measurement alternates untraced and traced
/// operations; spans go to <out-dir>/spans.tsv when the run ends.

#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <iostream>
#include <map>
#include <string>

#include "common/parse.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using exadigit::Json;

/// Set-ups per untraced run; their median is setup_s. Spread over the run
/// like the operations are.
constexpr int kSetupReps = 7;
/// The window is extended until this many operations ran, so that the
/// median comes from a sample even when the program is slow, and
/// a traced run has the 21 untraced operations a median with ten samples
/// beyond it needs.
constexpr std::size_t kMinOps = 42;
/// Hard ceiling on one measurement window.
constexpr double kMaxMeasureS = 120.0;
constexpr std::size_t kMaxErrors = 8;
/// Spans reserved up front in a traced run, so the buffer never moves and
/// only the pages it fills count towards the resident set.
constexpr std::size_t kSpanReserve = std::size_t{1} << 22;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i + 1 < argc; i += 2) values[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || values.size() != 5 || !values.count("--workload") ||
      !values.count("--seed") || !values.count("--seconds") || !values.count("--trace") ||
      !values.count("--out-dir")) {
    return false;
  }
  args->workload = values["--workload"];
  args->out_dir = values["--out-dir"];
  int seconds = 0;
  int trace = -1;
  if (!exadigit::try_parse_uint64(values["--seed"], &args->seed) ||
      !exadigit::try_parse_int(values["--seconds"], &seconds) || seconds <= 0 ||
      !exadigit::try_parse_int(values["--trace"], &trace) || (trace != 0 && trace != 1)) {
    return false;
  }
  args->seconds = static_cast<double>(seconds);
  args->trace = trace == 1;
  return true;
}

std::unique_ptr<Workload> make_workload(const Args& args, Tracer& tracer) {
  if (args.workload == "coupled_replay") return make_coupled_replay(tracer);
  if (args.workload == "stream_replay") return make_stream_replay(tracer, args.out_dir);
  if (args.workload == "sched_backlog") return make_sched_backlog(tracer);
  if (args.workload == "server_mixed") return make_server_mixed(tracer);
  return nullptr;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Peak resident set of this process since the last reset, MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets the VmHWM high-water mark to the current RSS; false when the
/// kernel refuses (the phase split then degrades to process peaks).
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace

int run(const Args& args) {
  Tracer tracer;
  const std::uint32_t op_span = tracer.intern("op");
  Json out;
  out["workload"] = args.workload;
  out["seed"] = static_cast<std::int64_t>(args.seed);
  out["trace"] = args.trace;

  Json setup_s{Json::Array{}};
  Json setup_peak_mb{Json::Array{}};
  Json run_peak_mb{Json::Array{}};
  bool phase_split = true;
  Json op_ms{Json::Array{}};
  Json op_sim_s{Json::Array{}};
  Json op_traced{Json::Array{}};
  Json requests{Json::Object{}};
  Json errors{Json::Array{}};
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::size_t traced_ops = 0;
  bool next_traced = false;
  double measure_s = 0.0;
  // An untraced run measures in kSetupReps blocks, each on a freshly set up
  // workload, so that the set-ups are spread over the run like the
  // operations are. A traced run sets up once: its layer counters belong
  // to one workload.
  // Set-ups count towards the window, so a run lasts --seconds whatever
  // its set-up costs: block b ends (b + 1) / blocks of the way through.
  const int blocks = args.trace ? 1 : kSetupReps;
  const double block_s = args.seconds / blocks;
  const std::size_t block_min_ops = (kMinOps + blocks - 1) / blocks;
  const std::int64_t run_start = Tracer::now_ns();
  std::unique_ptr<Workload> workload;
  for (int block = 0; block < blocks; ++block) {
    // Tearing down the previous workload (stopping a server, deleting a
    // dataset) is not part of set-up; each phase's memory peak is its own.
    workload.reset();
    malloc_trim(0);
    phase_split = reset_peak_rss() && phase_split;
    workload = make_workload(args, tracer);
    if (!workload) {
      std::cerr << "unknown workload \"" << args.workload << "\"\n";
      return 2;
    }
    const std::int64_t t0 = Tracer::now_ns();
    workload->setup(args.seed);
    setup_s.push_back(seconds_between(t0, Tracer::now_ns()));
    setup_peak_mb.push_back(peak_rss_mb());
    // Hand freed set-up memory back to the kernel, so that the run phase's
    // peak is its own and not what the allocator kept from set-up.
    malloc_trim(0);
    phase_split = reset_peak_rss() && phase_split;
    if (args.trace) tracer.reserve(kSpanReserve);

    std::size_t ops = 0;
    const std::int64_t start = Tracer::now_ns();
    const double block_end_s = block_s * (block + 1);
    while (true) {
      const std::int64_t now = Tracer::now_ns();
      if (seconds_between(start, now) >= kMaxMeasureS / blocks) break;
      if (seconds_between(run_start, now) >= block_end_s && ops >= block_min_ops) break;
      const bool traced = args.trace && next_traced;
      next_traced = !next_traced;
      tracer.set_enabled(traced);
      tracer.begin(op_span);
      const std::int64_t op_start = Tracer::now_ns();
      OpOutcome outcome;
      try {
        outcome = workload->run_op(traced);
      } catch (const std::exception& e) {
        outcome.fail(e.what());
      }
      const std::int64_t op_end = Tracer::now_ns();
      tracer.end();
      tracer.set_enabled(false);
      ++ops;
      attempted += outcome.checks;
      failed += static_cast<std::int64_t>(outcome.errors.size());
      for (const std::string& e : outcome.errors) {
        if (errors.as_array().size() < kMaxErrors) errors.push_back(e);
      }
      op_ms.push_back(ms_between(op_start, op_end));
      op_sim_s.push_back(outcome.sim_seconds);
      op_traced.push_back(traced);
      if (traced) {
        ++traced_ops;
      } else {
        for (const RequestSample& r : outcome.requests) requests[r.label].push_back(r.ms);
      }
    }
    measure_s += seconds_between(start, Tracer::now_ns());
    // The span buffer is the benchmark's, not the workload's.
    run_peak_mb.push_back(peak_rss_mb() -
                          static_cast<double>(tracer.bytes()) / (1024.0 * 1024.0));
  }
  out["setup_s"] = std::move(setup_s);
  out["measure_s"] = measure_s;

  Json memory;
  memory["setup_peak_mb"] = std::move(setup_peak_mb);
  memory["run_peak_mb"] = std::move(run_peak_mb);
  memory["phase_split"] = phase_split;
  out["memory"] = std::move(memory);

  if (args.trace) {
    LayerReport report = workload->report_layers(traced_ops);
    attempted += report.checks;
    for (const std::string& e : report.errors) {
      ++failed;
      if (errors.as_array().size() < kMaxErrors) errors.push_back(e);
    }
    out["layers"] = std::move(report.layers);
    out["span_metrics"] = std::move(report.span_metrics);
    const std::string spans_path = args.out_dir + "/spans.tsv";
    if (!tracer.write_tsv(spans_path)) {
      std::cerr << "cannot write " << spans_path << "\n";
      return 1;
    }
    out["spans_file"] = spans_path;
  }
  workload.reset();

  out["attempted"] = attempted;
  out["failed"] = failed;
  out["errors"] = std::move(errors);
  out["op_ms"] = std::move(op_ms);
  out["op_sim_s"] = std::move(op_sim_s);
  out["op_traced"] = std::move(op_traced);
  out["requests"] = std::move(requests);
  out["traced_ops"] = static_cast<std::int64_t>(traced_ops);
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::cerr << "usage: perfbench_measure --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir>\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_measure: " << e.what() << "\n";
    return 1;
  }
}
