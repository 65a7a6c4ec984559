// Property test for the UMR round-count scan (core/umr.cpp): the feasibility
// check evaluates the last round time in closed form,
//   tau_{M-1} = tau* + (tau_0 - tau*) rho^{M-1}   (tau_0 - beta (M-1) at rho = 1),
// instead of walking the recurrence tau_{j+1} = (tau_j - beta) / A. The
// oracle below is the recurrence walk; the solver must pick the same M and
// predict the same makespan, bit for bit. (Far past the optimum, where
// rho > 1 amplifies rounding in both, the two may disagree on the
// feasibility of candidates that cannot win, so only the result is compared.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/umr.hpp"
#include "platform/heterogeneity.hpp"
#include "stats/rng.hpp"

namespace rumr::core {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct Aggregates {
  double a = 0.0;
  double beta = 0.0;
  double s_total = 0.0;
  double d = 0.0;
  double c2 = 0.0;
  double sum_nlat = 0.0;
  double max_clat = 0.0;
  double max_tlat = 0.0;
};

Aggregates aggregates(const platform::StarPlatform& p) {
  Aggregates g;
  for (const platform::WorkerSpec& w : p.workers()) {
    g.a += w.speed / w.bandwidth;
    g.s_total += w.speed;
    g.d += w.speed * w.comp_latency;
    g.c2 += w.speed * w.comp_latency / w.bandwidth;
    g.sum_nlat += w.comm_latency;
    g.max_clat = std::max(g.max_clat, w.comp_latency);
    g.max_tlat = std::max(g.max_tlat, w.transfer_latency);
  }
  g.beta = g.sum_nlat - g.c2;
  return g;
}

double initial_round_time(const Aggregates& g, double w_total, double m) {
  const double sum_tau_target = (w_total + m * g.d) / g.s_total;
  if (std::abs(g.a - 1.0) < 1e-12) return sum_tau_target / m + g.beta * (m - 1.0) / 2.0;
  const double rho = 1.0 / g.a;
  if (m * std::log(std::max(rho, 1e-300)) > 650.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double tau_star = g.beta / (1.0 - g.a);
  const double geo_sum = (std::pow(rho, m) - 1.0) / (rho - 1.0);
  return tau_star + (sum_tau_target - m * tau_star) / geo_sum;
}

/// E(M) with the tail found by walking the recurrence M - 1 steps. Counts
/// candidates whose first round is feasible but whose last is not, so the
/// test can show the tail check decides some of them.
double walk_makespan(const Aggregates& g, double w_total, std::size_t m,
                     std::size_t* tail_rejections = nullptr) {
  const double tau0 = initial_round_time(g, w_total, static_cast<double>(m));
  if (!std::isfinite(tau0)) return kInfinity;
  const double floor_tau = g.max_clat + 1e-12 * std::max(1.0, std::abs(tau0));
  double tau = tau0;
  for (std::size_t j = 0; j + 1 < m; ++j) tau = (tau - g.beta) / g.a;
  if (!(tau0 > floor_tau)) return kInfinity;
  if (!(tau > floor_tau) || !std::isfinite(tau)) {
    if (tail_rejections != nullptr) ++*tail_rejections;
    return kInfinity;
  }
  return g.sum_nlat + g.a * tau0 - g.c2 +
         (w_total + static_cast<double>(m) * g.d) / g.s_total + g.max_tlat;
}

/// Checks solve_umr's scan against the walk oracle on the platform it
/// actually schedules (after resource selection).
void expect_same_rounds(const platform::StarPlatform& p, double w_total,
                        const UmrOptions& options, std::size_t* tail_rejections) {
  const UmrSchedule s = solve_umr(p, w_total, options);
  const platform::StarPlatform active =
      s.used_resource_selection ? p.subset(s.selected_workers) : p;
  const Aggregates g = aggregates(active);

  std::size_t best_m = 1;
  double best_e = kInfinity;
  for (std::size_t m = 1; m <= options.max_rounds; ++m) {
    const double e = walk_makespan(g, w_total, m, tail_rejections);
    if (m == 1 || e < best_e - 1e-9 * (1.0 + std::abs(best_e))) {
      best_e = e;
      best_m = m;
    } else if (m > best_m + 64) {
      break;
    }
  }
  EXPECT_EQ(s.rounds, best_m);
  EXPECT_EQ(s.predicted_makespan, best_e);
}

platform::StarPlatform homogeneous(stats::Rng& rng, bool zero_latency) {
  const auto n = 1 + static_cast<std::size_t>(rng.uniform_index(60));
  const double speed = rng.uniform(0.5, 2.0);
  return platform::StarPlatform::homogeneous(
      {.workers = n,
       .speed = speed,
       .bandwidth = rng.uniform(0.8, 3.0) * speed * static_cast<double>(n),
       .comp_latency = zero_latency ? 0.0 : rng.uniform(0.0, 1.0),
       .comm_latency = zero_latency ? 0.0 : rng.uniform(0.0, 1.0),
       .transfer_latency = zero_latency ? 0.0 : rng.uniform(0.0, 0.5)});
}

TEST(UmrClosedForm, HomogeneousPlatformsPickTheWalkRoundCount) {
  stats::Rng rng(0xc105edf0ULL);
  std::size_t tail_rejections = 0;
  for (int trial = 0; trial < 300; ++trial) {
    UmrOptions options;
    // Without selection A may exceed 1, where the round times shrink toward
    // tau* and the tail check is what rejects large M.
    options.allow_resource_selection = trial % 2 == 0;
    expect_same_rounds(homogeneous(rng, false), rng.uniform(10.0, 1e4), options,
                       &tail_rejections);
  }
  EXPECT_GT(tail_rejections, 0u);
}

TEST(UmrClosedForm, HeterogeneousPlatformsPickTheWalkRoundCount) {
  stats::Rng rng(0x4e7e20ULL);
  std::size_t tail_rejections = 0;
  for (int trial = 0; trial < 300; ++trial) {
    platform::HeterogeneityParams params;
    params.workers = 1 + static_cast<std::size_t>(rng.uniform_index(40));
    params.speed_cv = rng.uniform(0.0, 0.8);
    params.bandwidth_cv = rng.uniform(0.0, 0.8);
    params.bandwidth_over_ns = rng.uniform(0.8, 3.0);
    params.mean_comp_latency = rng.uniform(0.0, 1.0);
    params.comp_latency_cv = rng.uniform(0.0, 0.5);
    params.mean_comm_latency = rng.uniform(0.0, 1.0);
    params.comm_latency_cv = rng.uniform(0.0, 0.5);
    params.mean_transfer_latency = rng.uniform(0.0, 0.5);
    UmrOptions options;
    options.allow_resource_selection = trial % 2 == 0;
    expect_same_rounds(platform::random_heterogeneous(params, rng), rng.uniform(10.0, 1e4),
                       options, &tail_rejections);
  }
  EXPECT_GT(tail_rejections, 0u);
}

TEST(UmrClosedForm, ZeroLatencyPlatformsPickTheWalkRoundCount) {
  stats::Rng rng(0x2e401a7ULL);
  for (int trial = 0; trial < 200; ++trial) {
    UmrOptions options;
    options.allow_resource_selection = trial % 2 == 0;
    expect_same_rounds(homogeneous(rng, true), rng.uniform(10.0, 1e4), options, nullptr);
  }
}

TEST(UmrClosedForm, UnitGrowthBranchPicksTheWalkRoundCount) {
  // N * S / B == 1 exactly, so A == 1 and the round times are arithmetic.
  UmrOptions options;
  options.allow_resource_selection = false;
  for (const double clat : {0.0, 0.1, 0.5, 2.0}) {
    for (const double nlat : {0.0, 0.05, 0.3}) {
      const platform::StarPlatform p = platform::StarPlatform::homogeneous(
          {.workers = 4, .speed = 1.0, .bandwidth = 4.0, .comp_latency = clat,
           .comm_latency = nlat});
      ASSERT_EQ(p.utilization_ratio(), 1.0);
      for (const double w : {10.0, 1000.0}) expect_same_rounds(p, w, options, nullptr);
    }
  }
}

}  // namespace
}  // namespace rumr::core
