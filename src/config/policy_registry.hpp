#pragma once

/// \file policy_registry.hpp
/// The one table of scheduling policies. Every name-based entry point — a
/// run description's [schedule] algorithm, jobs, serve queries, Sweep/Race
/// name line-ups, sweep::algorithm and the sweep line-ups — resolves its
/// name here. Adding a policy means adding one row to kPolicies
/// (policy_registry.cpp).
///
/// Keys are lower-case and case-sensitive:
///
///   rumr | rumr-inorder | rumr-adaptive | umr | umr-eager |
///   factoring | wf | gss | tss | fsc      fixed keys
///   mi-<x>      Multi-Installment with x in [1, 64] installments (MI-x)
///   rumr-<pct>  RUMR with a fixed pct in [0, 100] percent of the workload
///               in phase 1 (RUMR-<pct>, the Figure 6 ablation)
///
/// A family parameter is decimal digits only and must lie in the family's
/// range; fixed keys win over families ("rumr-adaptive" is fixed). Every
/// failure is a ConfigError whose message starts "unknown algorithm: ".

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::config {

/// Builds one policy. `known_error` is the error level the scheduler is told
/// (RUMR and FSC use it; the others ignore it by construction); `param` is
/// the family parameter (0 for fixed keys).
using PolicyFactory = std::unique_ptr<sim::SchedulerPolicy> (*)(
    const platform::StarPlatform& platform, double w_total, double known_error,
    std::size_t param);

/// A family's inclusive parameter range, and the member the every-policy
/// tests and determinism_check instantiate.
struct ParamRange {
  std::size_t min = 0;
  std::size_t max = 0;
  std::size_t example = 0;
};

struct PolicyRow {
  constexpr PolicyRow(std::string_view row_key, std::string_view row_display,
                      PolicyFactory row_make, std::optional<ParamRange> row_param = {})
      : key(row_key), display(row_display), make(row_make), param(row_param) {}

  std::string_view key;             ///< Fixed key, or a family's prefix ("mi-").
  std::string_view display;         ///< Display name, or a family's prefix ("MI-").
  PolicyFactory make;
  std::optional<ParamRange> param;  ///< Set for families only.
};

/// A key resolved to its row and parameter.
struct ResolvedPolicy {
  const PolicyRow* row = nullptr;
  std::size_t param = 0;
  std::string display;  ///< "RUMR", "MI-2", "RUMR-70", ...
};

/// Every row, in table order.
[[nodiscard]] std::span<const PolicyRow> policy_rows() noexcept;

/// Resolves `key`. Throws ConfigError for an unknown key or a malformed or
/// out-of-range family parameter.
[[nodiscard]] ResolvedPolicy resolve_policy(std::string_view key);

/// One key per row, in table order: each fixed key, and each family at its
/// example parameter ("mi-2", "rumr-70").
[[nodiscard]] std::vector<std::string> example_policy_keys();

}  // namespace rumr::config
