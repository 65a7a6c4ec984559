#include "config/policy_registry.hpp"

#include <charconv>
#include <utility>

#include "baselines/factoring.hpp"
#include "baselines/fsc.hpp"
#include "baselines/loop_scheduling.hpp"
#include "baselines/multi_installment.hpp"
#include "config/config_file.hpp"
#include "core/adaptive_rumr.hpp"
#include "core/rumr.hpp"
#include "core/umr_policy.hpp"

namespace rumr::config {

namespace {

using platform::StarPlatform;
using Policy = std::unique_ptr<sim::SchedulerPolicy>;

/// A factory for a policy that takes only the platform and the workload.
template <Policy (*Make)(const StarPlatform&, double)>
Policy plain(const StarPlatform& p, double w, double, std::size_t) {
  return Make(p, w);
}

Policy rumr(const StarPlatform& p, double w, double error, core::DispatchOrder order,
            const char* name) {
  core::RumrOptions options;
  options.known_error = error;
  options.phase1_order = order;
  options.name = name;
  return std::make_unique<core::RumrPolicy>(p, w, std::move(options));
}

constexpr PolicyRow kPolicies[] = {
    {"rumr", "RUMR",
     [](const StarPlatform& p, double w, double error, std::size_t) {
       return rumr(p, w, error, core::DispatchOrder::kOutOfOrder, "RUMR");
     }},
    // In-order (plain UMR) phase 1: the Figure 7 ablation.
    {"rumr-inorder", "RUMR-inorder",
     [](const StarPlatform& p, double w, double error, std::size_t) {
       return rumr(p, w, error, core::DispatchOrder::kInOrder, "RUMR-inorder");
     }},
    // On-line error estimation (extension).
    {"rumr-adaptive", "RUMR-adaptive",
     [](const StarPlatform& p, double w, double, std::size_t) -> Policy {
       return std::make_unique<core::AdaptiveRumrPolicy>(p, w);
     }},
    // A fixed percentage of the workload in phase 1: the Figure 6 ablation.
    {"rumr-", "RUMR-",
     [](const StarPlatform& p, double w, double, std::size_t percent) -> Policy {
       return std::make_unique<core::RumrPolicy>(
           p, w, core::rumr_fixed_split_options(static_cast<double>(percent)));
     },
     ParamRange{0, 100, 70}},
    // The paper's UMR competitor executes a schedule "precalculated at the
    // onset of the application" — sizes, order, AND send times. kTimetable is
    // that literal execution: a send never starts before its planned time, so
    // the master cannot opportunistically run ahead when transfers finish
    // early (the greedy component RUMR adds in phase 1).
    {"umr", "UMR",
     [](const StarPlatform& p, double w, double, std::size_t) -> Policy {
       return std::make_unique<core::UmrPolicy>(p, w, core::DispatchOrder::kTimetable);
     }},
    {"umr-eager", "UMR-eager",
     [](const StarPlatform& p, double w, double, std::size_t) -> Policy {
       return std::make_unique<core::UmrPolicy>(p, w, core::DispatchOrder::kInOrder);
     }},
    {"mi-", "MI-",
     [](const StarPlatform& p, double w, double, std::size_t installments) {
       return baselines::make_mi_policy(p, w, installments);
     },
     // Bounded because the solve sizes an N·x × (N+1) band: an unchecked x
     // from a run file or a served query would be an allocation request.
     ParamRange{1, 64, 2}},
    {"factoring", "Factoring", &plain<&baselines::make_factoring_policy>},
    {"wf", "WF", &plain<&baselines::make_weighted_factoring_policy>},
    {"gss", "GSS", &plain<&baselines::make_gss_policy>},
    {"tss", "TSS", &plain<&baselines::make_tss_policy>},
    {"fsc", "FSC",
     [](const StarPlatform& p, double w, double error, std::size_t) {
       return baselines::make_fsc_policy(p, w, error);
     }},
};

[[noreturn]] void reject(std::string_view key, const PolicyRow* family) {
  std::string message = "unknown algorithm: " + std::string(key);
  if (family != nullptr) {
    message += " (" + std::string(family->key) + "<n> takes decimal n >= " +
               std::to_string(family->param->min) + ", <= " +
               std::to_string(family->param->max) + ")";
  }
  throw ConfigError(message);
}

}  // namespace

std::span<const PolicyRow> policy_rows() noexcept { return kPolicies; }

ResolvedPolicy resolve_policy(std::string_view key) {
  for (const PolicyRow& row : kPolicies) {
    if (!row.param && key == row.key) return {&row, 0, std::string(row.display)};
  }
  for (const PolicyRow& row : kPolicies) {
    if (!row.param || !key.starts_with(row.key)) continue;
    const char* first = key.data() + row.key.size();
    const char* last = key.data() + key.size();
    std::size_t value = 0;
    const auto [end, error] = std::from_chars(first, last, value);
    if (error != std::errc{} || end != last || value < row.param->min ||
        value > row.param->max) {
      reject(key, &row);
    }
    return {&row, value, std::string(row.display) + std::to_string(value)};
  }
  reject(key, nullptr);
}

std::vector<std::string> example_policy_keys() {
  std::vector<std::string> keys;
  for (const PolicyRow& row : kPolicies) {
    keys.push_back(std::string(row.key) +
                   (row.param ? std::to_string(row.param->example) : std::string()));
  }
  return keys;
}

}  // namespace rumr::config
