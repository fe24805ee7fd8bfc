#include "policy_probe.hpp"

#include <memory>

#include "raps/policy/policy_registry.hpp"

namespace perfbench {

namespace {

constexpr const char* kProbeName = "perfbench_probe";

class ProbePolicy final : public exadigit::SchedulingPolicy {
 public:
  explicit ProbePolicy(std::unique_ptr<exadigit::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const override { return kProbeName; }
  [[nodiscard]] bool wants_periodic_pass() const override {
    return inner_->wants_periodic_pass();
  }

  void schedule(std::deque<exadigit::JobRecord>& queue, const exadigit::SchedulerContext& ctx,
                const std::function<bool(const exadigit::JobRecord&)>& start_job) override {
    PolicyProbe& probe = policy_probe();
    ++probe.passes;
    probe.queue_scanned += static_cast<long long>(queue.size());
    ScopedSpan span(*probe.tracer, probe.span);
    inner_->schedule(queue, ctx, [&probe, &start_job](const exadigit::JobRecord& job) {
      ++probe.start_attempts;
      const bool started = start_job(job);
      if (started) ++probe.starts;
      return started;
    });
  }

 private:
  std::unique_ptr<exadigit::SchedulingPolicy> inner_;
};

}  // namespace

PolicyProbe& policy_probe() {
  static PolicyProbe probe;
  return probe;
}

const char* register_policy_probe(Tracer& tracer, const std::string& inner) {
  PolicyProbe& probe = policy_probe();
  probe.inner = inner;
  probe.tracer = &tracer;
  probe.span = tracer.intern("raps.policy.schedule");
  auto& registry = exadigit::SchedulingPolicyRegistry::instance();
  if (!registry.contains(kProbeName)) {
    registry.register_policy(kProbeName, [](const exadigit::Json& params) {
      exadigit::check_policy_params(params, kProbeName, {});
      return std::make_unique<ProbePolicy>(exadigit::SchedulingPolicyRegistry::instance().create(
          policy_probe().inner, exadigit::Json()));
    });
  }
  return kProbeName;
}

}  // namespace perfbench
