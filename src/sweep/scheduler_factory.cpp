#include "sweep/scheduler_factory.hpp"

#include "config/policy_registry.hpp"

namespace rumr::sweep {

AlgorithmSpec algorithm(std::string_view key) {
  const config::ResolvedPolicy policy = config::resolve_policy(key);
  return {policy.display,
          [make = policy.row->make, param = policy.param](const platform::StarPlatform& p,
                                                           double w, double error) {
            return make(p, w, error, param);
          }};
}

std::vector<AlgorithmSpec> algorithms(const std::vector<std::string>& keys) {
  std::vector<AlgorithmSpec> specs;
  specs.reserve(keys.size());
  for (const std::string& key : keys) specs.push_back(algorithm(key));
  return specs;
}

std::vector<AlgorithmSpec> paper_competitors() {
  return algorithms({"rumr", "umr", "mi-1", "mi-2", "mi-3", "mi-4", "factoring"});
}

std::vector<AlgorithmSpec> extended_competitors() {
  return algorithms({"rumr", "umr", "mi-1", "mi-2", "mi-3", "mi-4", "factoring", "fsc"});
}

std::vector<AlgorithmSpec> racing_competitors() {
  return algorithms({"rumr", "rumr-50", "rumr-60", "rumr-70", "rumr-80", "rumr-90", "umr",
                     "mi-2", "factoring", "fsc"});
}

std::vector<AlgorithmSpec> loop_family_competitors() {
  return algorithms({"rumr", "factoring", "wf", "gss", "tss", "fsc"});
}

}  // namespace rumr::sweep
