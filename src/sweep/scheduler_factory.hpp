#pragma once

/// \file scheduler_factory.hpp
/// Sweep-side view of the policy registry (config/policy_registry.hpp): an
/// AlgorithmSpec per registry key, and the evaluation line-ups as lists of
/// keys, so the sweep runner and the bench harnesses share one definition
/// of each competitor.
///
/// The factory receives the true error level of the experiment: RUMR and FSC
/// are given it (the paper's "error is known" setting — see section 4.2);
/// UMR, MI-x and Factoring ignore it by construction.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::sweep {

/// A named scheduling algorithm.
struct AlgorithmSpec {
  std::string name;
  std::function<std::unique_ptr<sim::SchedulerPolicy>(const platform::StarPlatform& platform,
                                                      double w_total, double error)>
      make;
};

/// The registry row for `key` ("rumr", "mi-2", "rumr-80", ...), labelled
/// with its display name ("RUMR", "MI-2", "RUMR-80"). The key is resolved
/// once, here. Throws config::ConfigError for an unknown key.
[[nodiscard]] AlgorithmSpec algorithm(std::string_view key);

/// The paper's section 5.1 line-up, reference (RUMR) first:
/// RUMR, UMR, MI-1, MI-2, MI-3, MI-4, Factoring.
[[nodiscard]] std::vector<AlgorithmSpec> paper_competitors();

/// paper_competitors() plus FSC (measured by the paper but not plotted).
[[nodiscard]] std::vector<AlgorithmSpec> extended_competitors();

/// RUMR against the whole loop self-scheduling family:
/// RUMR, Factoring, WF, GSS, TSS, FSC (extension study).
[[nodiscard]] std::vector<AlgorithmSpec> loop_family_competitors();

/// The best-arm racing line-up (race/race.hpp): RUMR and its fixed-split
/// ablations against the cross-family baselines —
/// RUMR, RUMR-50..RUMR-90, UMR, MI-2, Factoring, FSC (10 arms).
[[nodiscard]] std::vector<AlgorithmSpec> racing_competitors();

/// One spec per key, in order. Throws config::ConfigError for an unknown key.
[[nodiscard]] std::vector<AlgorithmSpec> algorithms(const std::vector<std::string>& keys);

}  // namespace rumr::sweep
