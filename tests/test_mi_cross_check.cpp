// Cross-check of the banded Multi-Installment solve
// (baselines/multi_installment.cpp) against a dense LU oracle: the original
// (N*x) x (N*x) assembly of the just-in-time, simultaneous-finish and
// conservation conditions, solved with the test-only linalg LU. The two must
// agree to 1e-12 * W per chunk and on the `clamped` flag on the Table-1 grid,
// seeded heterogeneous platforms, slow links (S_i / B_i >> 1) where
// (1 + r)^{N*x} overflows a double, and platforms whose rates span decades.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "baselines/multi_installment.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "platform/heterogeneity.hpp"
#include "stats/rng.hpp"

namespace rumr::baselines {
namespace {

struct OracleSchedule {
  std::vector<double> alpha;  ///< Dispatch order: installment-major.
  bool clamped = false;
};

/// Dense assembly of the MI conditions over alpha (chunk sizes), solved by
/// LU with partial pivoting, then the same clamp/renormalise step as the
/// solver under test.
OracleSchedule dense_oracle(const platform::StarPlatform& platform, double w_total,
                            std::size_t x) {
  const std::size_t n = platform.size();
  const std::size_t vars = n * x;
  const auto var = [n](std::size_t j, std::size_t i) { return j * n + i; };
  linalg::Matrix a(vars, vars);
  std::vector<double> b(vars, 0.0);
  std::size_t row = 0;

  // Just-in-time: chunk (j+1, i) arrives when chunk (j, i) finishes.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j + 1 < x; ++j) {
      for (std::size_t v = var(0, i) + 1; v <= var(j + 1, i); ++v) {
        a(row, v) += 1.0 / platform.worker(v % n).bandwidth;
      }
      for (std::size_t k = 0; k <= j; ++k) a(row, var(k, i)) -= 1.0 / platform.worker(i).speed;
      ++row;
    }
  }
  // Simultaneous finish of neighbouring workers.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t v = 0; v <= var(0, i); ++v) {
      a(row, v) += 1.0 / platform.worker(v % n).bandwidth;
    }
    for (std::size_t k = 0; k < x; ++k) a(row, var(k, i)) += 1.0 / platform.worker(i).speed;
    for (std::size_t v = 0; v <= var(0, i + 1); ++v) {
      a(row, v) -= 1.0 / platform.worker(v % n).bandwidth;
    }
    for (std::size_t k = 0; k < x; ++k) {
      a(row, var(k, i + 1)) -= 1.0 / platform.worker(i + 1).speed;
    }
    ++row;
  }
  // Conservation.
  for (std::size_t v = 0; v < vars; ++v) a(row, v) = 1.0;
  b[row] = w_total;

  OracleSchedule out;
  out.alpha = linalg::solve(a, b);
  EXPECT_EQ(out.alpha.size(), vars) << "oracle system is singular";
  double positive_mass = 0.0;
  for (double& v : out.alpha) {
    if (v < 0.0) {
      if (v < -1e-9 * w_total) out.clamped = true;
      v = 0.0;
    }
    positive_mass += v;
  }
  for (double& v : out.alpha) v *= w_total / positive_mass;
  return out;
}

/// Every chunk within 1e-12 * W of the oracle's, with equal clamp flags.
void expect_matches_oracle(const platform::StarPlatform& platform, double w_total,
                             std::size_t x) {
  const MiSchedule mi = solve_multi_installment(platform, w_total, x);
  const OracleSchedule oracle = dense_oracle(platform, w_total, x);
  const std::size_t n = platform.size();
  EXPECT_EQ(mi.clamped, oracle.clamped) << "N=" << n << " x=" << x;
  if (oracle.alpha.size() != n * x) return;
  double worst = 0.0;
  for (std::size_t j = 0; j < x; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, std::abs(mi.chunk[j][i] - oracle.alpha[j * n + i]));
    }
  }
  EXPECT_LE(worst, 1e-12 * w_total) << "N=" << n << " x=" << x;
}

TEST(MiCrossCheck, MatchesDenseOracleOnTable1Grid) {
  for (const std::size_t n : {10u, 30u, 50u}) {
    for (const double b_over_n : {1.2, 1.6, 2.0}) {
      const platform::StarPlatform p = platform::StarPlatform::homogeneous(
          {.workers = n, .speed = 1.0, .bandwidth = b_over_n * static_cast<double>(n)});
      for (std::size_t x = 1; x <= 4; ++x) expect_matches_oracle(p, 1000.0, x);
    }
  }
}

TEST(MiCrossCheck, MatchesDenseOracleOnHeterogeneousPlatforms) {
  stats::Rng rng(0x5eed0c0ffeeULL);
  for (int trial = 0; trial < 60; ++trial) {
    platform::HeterogeneityParams params;
    params.workers = 2 + static_cast<std::size_t>(rng.uniform_index(24));
    params.speed_cv = rng.uniform(0.0, 0.8);
    params.bandwidth_cv = rng.uniform(0.0, 0.8);
    params.bandwidth_over_ns = rng.uniform(0.3, 3.0);
    const platform::StarPlatform p = platform::random_heterogeneous(params, rng);
    const std::size_t x = 1 + static_cast<std::size_t>(rng.uniform_index(4));
    expect_matches_oracle(p, rng.uniform(10.0, 1e4), x);
  }
}

TEST(MiCrossCheck, MatchesDenseOracleOnSlowLinks) {
  // r_i = S_i / B_i in [100, 10^4]: a shooting method that propagates one
  // unknown through the recurrence grows like (1 + r)^{N*x}, which is not
  // representable here. The banded elimination must still match the oracle.
  stats::Rng rng(0x510711c5ULL);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 40 + static_cast<std::size_t>(rng.uniform_index(11));
    const std::size_t x = 4;
    std::vector<platform::WorkerSpec> workers;
    double min_r = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const double speed = rng.uniform(1.0, 10.0);
      const double bandwidth = rng.uniform(1e-3, 1e-2);
      min_r = std::min(min_r, speed / bandwidth);
      workers.push_back({speed, bandwidth, 0.0, 0.0, 0.0});
    }
    ASSERT_FALSE(std::isfinite(std::pow(1.0 + min_r, static_cast<double>(n * x))))
        << "trial " << trial << " does not exercise the overflow regime";
    expect_matches_oracle(platform::StarPlatform(std::move(workers)), 1000.0, x);
  }
}

TEST(MiCrossCheck, MatchesDenseOracleOnExtremePlatforms) {
  // One slow link to a fast worker takes almost all of T, so every later
  // arrival time sits just below 1: chunks must be differenced from the
  // remaining times 1 - t, or they lose up to 1e-10 * W.
  for (const double slow_bandwidth : {1e-2, 1e-3}) {
    for (const double fast_bandwidth : {1e2, 1e3}) {
      for (const std::size_t n : {4u, 10u, 20u}) {
        std::vector<platform::WorkerSpec> workers = {{10.0, slow_bandwidth, 0.0, 0.0, 0.0}};
        for (std::size_t i = 1; i < n; ++i) {
          workers.push_back({0.01 * static_cast<double>(1 + i % 3), fast_bandwidth, 0.0, 0.0, 0.0});
        }
        const platform::StarPlatform p(std::move(workers));
        for (const std::size_t x : {1u, 2u, 4u}) expect_matches_oracle(p, 1000.0, x);
      }
    }
  }
  // Speeds and bandwidths spread over four decades each.
  stats::Rng rng(0xe7ee3eULL);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_index(20));
    const std::size_t x = 1 + static_cast<std::size_t>(rng.uniform_index(4));
    std::vector<platform::WorkerSpec> workers;
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back({std::pow(10.0, rng.uniform(-2.0, 2.0)),
                         std::pow(10.0, rng.uniform(-2.0, 2.0)), 0.0, 0.0, 0.0});
    }
    expect_matches_oracle(platform::StarPlatform(std::move(workers)), 1000.0, x);
  }
}

TEST(MiCrossCheck, NonFiniteSolveFallsBackToUniformSplit) {
  // S / B overflows to +inf, so the arrival-time system has no finite
  // solution; the solver must return the conservative uniform split.
  const platform::StarPlatform p(
      {{1e300, 1e-300, 0.0, 0.0, 0.0}, {1.0, 4.0, 0.0, 0.0, 0.0}, {1.0, 4.0, 0.0, 0.0, 0.0}});
  const MiSchedule mi = solve_multi_installment(p, 600.0, 2);
  EXPECT_TRUE(mi.clamped);
  for (const auto& round : mi.chunk) {
    for (double c : round) EXPECT_EQ(c, 100.0);
  }
  EXPECT_DOUBLE_EQ(mi.total(), 600.0);
}

}  // namespace
}  // namespace rumr::baselines
