/// server_mixed: one client connection in a closed loop over loopback to an
/// in-process ScenarioServer. An operation is a round of 20 requests in a
/// seeded order: 14 single-scenario runs of a small fixed spec set (cache
/// hits), 5 unique-seed coupled simulate specs with a short horizon (misses
/// that execute, insert and evict), and one stats request. It is the only
/// workload on the framing, JSON, queue and cache path; hits and misses
/// use the cache in opposite ways. Set-up fills the server's default-sized
/// cache, so every miss of the run evicts an entry.

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/socket.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "scenario/scenario_runner.hpp"
#include "server/framing.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace {

using namespace exadigit;

/// The horizon of bench_server_roundtrip's what-if batch (its
/// EXADIGIT_BENCH_HOURS default), for hits and misses alike.
constexpr double kHorizonHours = 0.05;
constexpr int kRoundHits = 14;
constexpr int kRoundMisses = 5;
/// Misses replayed in process after a traced run for scenario.run_ms.
constexpr std::size_t kInProcessPairs = 24;

Json make_spec(const std::string& type, std::uint64_t seed, const std::string& name) {
  Json spec;
  spec["type"] = type;
  spec["name"] = name;
  spec["horizon_hours"] = kHorizonHours;
  spec["seed"] = static_cast<std::int64_t>(seed & 0x7fffffffffffULL);
  return spec;
}

/// The real server, run()ning on its own thread, stopped on destruction.
class LiveServer {
 public:
  explicit LiveServer(ServerOptions options)
      : server_(std::move(options)), thread_([this] { server_.run(); }) {}
  ~LiveServer() {
    server_.stop();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  ScenarioServer server_;
  std::thread thread_;
};

/// Everything one request brought back.
struct Exchange {
  std::vector<std::string> payloads;
  std::size_t bytes = 0;
};

class ServerMixed final : public Workload {
 public:
  explicit ServerMixed(Tracer& tracer) : tracer_(tracer), rng_(0) {
    round_.assign(kRoundHits, Kind::kHit);
    round_.insert(round_.end(), kRoundMisses, Kind::kMiss);
    round_.push_back(Kind::kStats);
    span_encode_ = tracer_.intern("json.encode");
    span_round_trip_ = tracer_.intern("server.round_trip");
    span_parse_ = tracer_.intern("json.parse");
    span_check_ = tracer_.intern("client.check");
  }

  ~ServerMixed() override {
    socket_.close();
    live_.reset();
  }

  void setup(std::uint64_t seed) override {
    ServerOptions options;
    const int cores = static_cast<int>(std::thread::hardware_concurrency());
    options.jobs = std::max(1, std::min(2, cores - 2));
    live_ = std::make_unique<LiveServer>(options);
    socket_ = TcpSocket::connect("127.0.0.1", live_->port());
    socket_.set_nodelay(true);

    rng_ = Rng(mix_seed(seed, 1));
    next_miss_seed_ = mix_seed(seed, 2);
    static const char* kTypes[] = {"simulate", "whatif_dc380", "whatif_smart_rectifiers"};
    for (int i = 0; i < 6; ++i) {
      fixed_.push_back(
          make_spec(kTypes[i % 3], mix_seed(seed, 10 + i), "fixed-" + std::to_string(i)));
    }
    for (const Json& spec : fixed_) {
      std::string result;
      bool cached = true;
      const std::string error = run_request(spec, &result, &cached);
      if (!error.empty()) throw std::runtime_error("warm-up: " + error);
      if (cached) throw std::runtime_error("warm-up: first request was served from the cache");
      fixed_results_.push_back(result);
    }
    // Fill the rest of the cache with unique specs, so that every miss of
    // the run evicts one; then touch the fixed specs, so that the evicted
    // entries are the filler ones. The rounds keep the fixed specs recent.
    for (std::size_t i = fixed_.size(); i < options.cache_entries; ++i) {
      std::string result;
      bool cached = true;
      const std::string error =
          run_request(make_spec("simulate", next_miss_seed_++, "miss"), &result, &cached);
      if (!error.empty()) throw std::runtime_error("cache fill: " + error);
      if (cached) throw std::runtime_error("cache fill: a unique spec was served from the cache");
    }
    for (std::size_t i = 0; i < fixed_.size(); ++i) {
      std::string result;
      bool cached = false;
      const std::string error = run_request(fixed_[i], &result, &cached);
      if (!error.empty()) throw std::runtime_error("warm-up: " + error);
      if (!cached || result != fixed_results_[i]) {
        throw std::runtime_error("warm-up: a fixed spec was not served from the cache");
      }
    }
    stats_baseline_ = stats_request(nullptr);
    reply_bytes_ = 0;
  }

  /// One round: kRoundHits repeats of fixed specs, kRoundMisses unique
  /// specs and one stats request, in a seeded order. Every request is a
  /// check of its own.
  OpOutcome run_op(bool traced) override {
    OpOutcome outcome;
    outcome.checks = 0;
    requests_ += round_.size();
    std::shuffle(round_.begin(), round_.end(), rng_.engine());
    double round_ms = 0.0;
    for (const Kind kind : round_) {
      ++outcome.checks;
      const std::int64_t t0 = Tracer::now_ns();
      std::string error;
      RequestSample sample;
      if (kind == Kind::kStats) {
        sample.label = "stats";
        const Json stats = stats_request(&error);
        if (error.empty() && !stats.contains("cache")) {
          error = "stats reply without a cache section";
        }
      } else {
        const bool miss = kind == Kind::kMiss;
        std::size_t fixed_index = 0;
        Json spec;
        if (miss) {
          spec = make_spec("simulate", next_miss_seed_++, "miss");
        } else {
          fixed_index = static_cast<std::size_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(fixed_.size()) - 1));
          spec = fixed_[fixed_index];
        }
        std::string result;
        bool cached = false;
        error = run_request(spec, &result, &cached);
        sample.label = cached ? "hit" : "miss";
        outcome.sim_seconds += kHorizonHours * 3600.0;
        ScopedSpan check(tracer_, span_check_);
        if (error.empty() && miss && cached) error = "a unique spec was served from the cache";
        if (error.empty() && !miss && result != fixed_results_[fixed_index]) {
          error = "cached result differs from the first reply for the spec";
        }
        if (error.empty() && traced && miss && pairs_.size() < kInProcessPairs) {
          pairs_.push_back(Pair{spec, result, ms_between(t0, Tracer::now_ns())});
        }
      }
      sample.ms = ms_between(t0, Tracer::now_ns());
      round_ms += sample.ms;
      if (!traced && sample.label == "hit") hit_ms_ += sample.ms;
      if (!traced && sample.label == "miss") ++misses_;
      outcome.requests.push_back(sample);
      if (!error.empty()) outcome.fail(error);
    }
    if (!traced) round_ms_ += round_ms;
    return outcome;
  }

  LayerReport report_layers(std::size_t) override {
    LayerReport report;
    report.layers["json.reply_bytes"] = static_cast<double>(reply_bytes_) /
                                        static_cast<double>(std::max<std::size_t>(1, requests_));
    std::string error;
    const Json stats = stats_request(&error);
    if (!error.empty()) {
      report.errors.push_back(error);
      return report;
    }
    const Json& now = stats.at("cache");
    const Json& base = stats_baseline_.at("cache");
    auto delta = [&](const char* key) {
      return static_cast<double>(now.at(key).as_int() - base.at(key).as_int());
    };
    const double requests = static_cast<double>(stats.at("requests_total").as_int() -
                                                stats_baseline_.at("requests_total").as_int());
    const double per = requests > 0.0 ? requests : 1.0;
    const double hits = delta("hits");
    const double misses = delta("misses");
    report.layers["server.cache_hits"] = hits / per;
    report.layers["server.cache_misses"] = misses / per;
    report.layers["server.cache_insertions"] = delta("insertions") / per;
    report.layers["server.cache_evictions"] = delta("evictions") / per;
    report.layers["server.cache_hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    if (stats.at("latency_ms").contains("simulate")) {
      report.layers["server.exec_p50_ms"] =
          stats.at("latency_ms").at("simulate").at("p50_ms").as_number();
    }

    // The same miss specs in process through ScenarioRunner: the execute
    // cost without transport, and a check that the server returned the
    // runner's bytes.
    std::vector<double> run_ms;
    std::vector<double> overhead_ms;
    ScenarioRunner::Options runner_options;
    runner_options.jobs = 1;
    const ScenarioRunner runner(runner_options);
    for (const Pair& pair : pairs_) {
      const ScenarioSpec spec = ScenarioSpec::from_json(pair.spec);
      const std::int64_t t0 = Tracer::now_ns();
      const std::vector<ScenarioResult> results = runner.run({spec});
      const double ms = ms_between(t0, Tracer::now_ns());
      ++report.checks;
      if (results.size() != 1 || results[0].to_wire_json().dump() != pair.result) {
        report.errors.push_back("server result differs from the in-process ScenarioRunner");
        continue;
      }
      run_ms.push_back(ms);
      overhead_ms.push_back(pair.round_trip_ms - ms);
    }
    if (!run_ms.empty()) {
      report.layers["scenario.run_ms"] = median(run_ms);
      report.layers["server.overhead_ms"] = median(overhead_ms);
    }
    // Where an untraced round's time goes: hit round trips, and the misses'
    // execution as the in-process runner measures it. The rest is the
    // misses' framing, JSON, queue and cache work and the stats request.
    if (round_ms_ > 0.0) {
      report.layers["server.hit_share_pct"] = 100.0 * hit_ms_ / round_ms_;
      if (!run_ms.empty()) {
        report.layers["server.miss_exec_share_pct"] =
            100.0 * static_cast<double>(misses_) * median(run_ms) / round_ms_;
      }
    }
    report.span_metrics["json.parse_ms"] = "json.parse";
    return report;
  }

 private:
  enum class Kind { kHit, kMiss, kStats };

  struct Pair {
    Json spec;
    std::string result;
    double round_trip_ms = 0.0;
  };

  static double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  }

  /// Sends one frame and reads frames until `done(type)` says the reply is
  /// complete. Returns an error message, empty on success.
  std::string exchange(const std::string& request, bool (*done)(const std::string&),
                       Exchange* out) {
    tracer_.begin(span_round_trip_);
    send_frame(socket_, request);
    std::string payload;
    std::string error;
    while (true) {
      if (!recv_frame(socket_, &payload)) {
        error = "server closed the connection";
        break;
      }
      out->bytes += payload.size();
      out->payloads.push_back(payload);
      if (done(payload)) break;
    }
    tracer_.end();
    return error;
  }

  /// One single-scenario run request. Fills the canonical result bytes and
  /// the cached flag; returns an error message, empty when the reply was
  /// well formed and the batch succeeded.
  std::string run_request(const Json& spec, std::string* result, bool* cached) {
    tracer_.begin(span_encode_);
    Json request;
    request["type"] = "run";
    request["id"] = "r" + std::to_string(request_counter_++);
    Json batch;
    batch["seed"] = std::int64_t{1};
    Json scenarios{Json::Array{}};
    scenarios.push_back(spec);
    batch["scenarios"] = std::move(scenarios);
    request["batch"] = std::move(batch);
    const std::string text = request.dump();
    tracer_.end();

    Exchange ex;
    std::string error = exchange(
        text,
        [](const std::string& p) {
          return p.find(R"("type":"batch_done")") != std::string::npos ||
                 p.find(R"("type":"error")") != std::string::npos;
        },
        &ex);
    reply_bytes_ += ex.bytes;
    if (!error.empty()) return error;

    ScopedSpan parse(tracer_, span_parse_);
    bool accepted = false;
    bool got_result = false;
    bool done = false;
    for (const std::string& payload : ex.payloads) {
      Json envelope;
      try {
        envelope = Json::parse(payload);
      } catch (const std::exception& e) {
        return std::string("malformed reply: ") + e.what();
      }
      const std::string type = envelope.string_or("type", "");
      if (type == "accepted") {
        accepted = envelope.int_or("scenarios", 0) == 1;
      } else if (type == "result") {
        if (!envelope.contains("result") || !envelope.contains("cached")) {
          return "result envelope without result or cached";
        }
        const Json& r = envelope.at("result");
        if (r.string_or("status", "") != "done") return "scenario did not complete";
        *cached = envelope.at("cached").as_bool();
        *result = r.dump();
        got_result = true;
      } else if (type == "batch_done") {
        if (envelope.int_or("failed", -1) != 0 || envelope.int_or("done", 0) != 1) {
          return "batch_done reports a failed scenario";
        }
        done = true;
      } else if (type == "error") {
        return "server error: " + envelope.string_or("message", "?");
      } else if (type != "status") {
        return "unexpected envelope type \"" + type + "\"";
      }
    }
    if (!accepted || !got_result || !done) return "incomplete reply";
    return {};
  }

  Json stats_request(std::string* error) {
    Exchange ex;
    std::string e = exchange(R"({"type": "stats"})", [](const std::string&) { return true; }, &ex);
    reply_bytes_ += ex.bytes;
    Json stats;
    if (e.empty()) {
      ScopedSpan parse(tracer_, span_parse_);
      try {
        stats = Json::parse(ex.payloads.front());
      } catch (const std::exception& ex_parse) {
        e = std::string("malformed stats reply: ") + ex_parse.what();
      }
      if (e.empty() && stats.string_or("type", "") != "stats") e = "reply is not a stats document";
    }
    if (error != nullptr) *error = e;
    else if (!e.empty()) throw std::runtime_error(e);
    return stats;
  }

  Tracer& tracer_;
  std::uint32_t span_encode_ = 0;
  std::uint32_t span_round_trip_ = 0;
  std::uint32_t span_parse_ = 0;
  std::uint32_t span_check_ = 0;
  std::unique_ptr<LiveServer> live_;
  TcpSocket socket_;
  Rng rng_;
  std::vector<Kind> round_;
  std::uint64_t next_miss_seed_ = 0;
  std::uint64_t request_counter_ = 0;
  std::vector<Json> fixed_;
  std::vector<std::string> fixed_results_;
  Json stats_baseline_;
  std::vector<Pair> pairs_;
  std::size_t requests_ = 0;
  std::size_t reply_bytes_ = 0;
  /// Untraced rounds: summed request time, hit time and miss count.
  double round_ms_ = 0.0;
  double hit_ms_ = 0.0;
  std::size_t misses_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_server_mixed(Tracer& tracer) {
  return std::make_unique<ServerMixed>(tracer);
}

}  // namespace perfbench
