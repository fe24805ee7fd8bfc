#include "raps/policy/policy_registry.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "config/config_json.hpp"
#include "raps/policy/backfill_policy.hpp"
#include "raps/policy/fcfs_policy.hpp"
#include "raps/policy/power_capped_policy.hpp"
#include "raps/policy/price_aware_policy.hpp"
#include "raps/policy/priority_policy.hpp"
#include "raps/policy/sjf_policy.hpp"

namespace exadigit {

SchedulingPolicyRegistry& SchedulingPolicyRegistry::instance() {
  static SchedulingPolicyRegistry registry;
  return registry;
}

SchedulingPolicyRegistry::SchedulingPolicyRegistry() {
  register_policy("fcfs", [](const Json& params) {
    check_policy_params(params, "fcfs", {});
    return std::make_unique<FcfsPolicy>();
  });
  register_policy("sjf", [](const Json& params) {
    check_policy_params(params, "sjf", {});
    return std::make_unique<SjfPolicy>();
  });
  register_policy("easy_backfill", [](const Json& params) {
    check_policy_params(params, "easy_backfill", {});
    return std::make_unique<BackfillPolicy>();
  });
  register_policy("priority",
                  [](const Json& params) { return std::make_unique<PriorityPolicy>(params); });
  register_policy("power_capped", [](const Json& params) {
    return std::make_unique<PowerCappedPolicy>(params);
  });
  register_policy("price_aware", [](const Json& params) {
    return std::make_unique<PriceAwarePolicy>(params);
  });
}

void SchedulingPolicyRegistry::register_policy(const std::string& name, Factory factory) {
  require(!name.empty(), "scheduling policy name must be non-empty");
  require(static_cast<bool>(factory), "scheduling policy factory must be callable");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(factories_.begin(), factories_.end(),
                           [&](const auto& entry) { return entry.first == name; });
    if (it != factories_.end()) {
      it->second = std::move(factory);
    } else {
      factories_.emplace_back(name, std::move(factory));
    }
  }
  // Keep the config layer's accepted-name set in sync so JSON validation
  // admits every policy this registry can actually build.
  register_scheduler_policy_name(name);
}

std::unique_ptr<SchedulingPolicy> SchedulingPolicyRegistry::create(const std::string& name,
                                                                   const Json& params) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(factories_.begin(), factories_.end(),
                           [&](const auto& entry) { return entry.first == name; });
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::string msg = "unknown scheduler policy \"" + name + "\"; registered policies are: ";
    bool first = true;
    for (const auto& n : names()) {
      if (!first) msg += ", ";
      msg += "\"" + n + "\"";
      first = false;
    }
    throw ConfigError(msg);
  }
  return factory(params);
}

bool SchedulingPolicyRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(factories_.begin(), factories_.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

std::vector<std::string> SchedulingPolicyRegistry::names() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(factories_.size());
    for (const auto& entry : factories_) out.push_back(entry.first);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void check_policy_params(const Json& params, const std::string& policy,
                         const std::vector<std::string>& allowed) {
  if (!params.is_null()) reject_unknown_keys(params, allowed, "policy \"" + policy + "\" params");
}

}  // namespace exadigit
