// Tests for the on-line error-estimation extension (core/adaptive_rumr.hpp).

#include "core/adaptive_rumr.hpp"

#include <gtest/gtest.h>

#include "sim/master_worker.hpp"

namespace rumr::core {
namespace {

platform::StarPlatform paperish() {
  return platform::StarPlatform::homogeneous(
      {.workers = 10, .speed = 1.0, .bandwidth = 16.0, .comp_latency = 0.2,
       .comm_latency = 0.1});
}

TEST(AdaptiveRumr, RejectsBadWorkload) {
  const platform::StarPlatform p = paperish();
  EXPECT_THROW(AdaptiveRumrPolicy(p, 0.0), std::invalid_argument);
}

TEST(AdaptiveRumr, ConservesWorkload) {
  const platform::StarPlatform p = paperish();
  AdaptiveRumrPolicy policy(p, 1000.0);
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.3, 21));
  EXPECT_NEAR(r.metrics.engine.work_dispatched, 1000.0, 1e-6);
  EXPECT_TRUE(policy.finished());
}

TEST(AdaptiveRumr, EstimateTracksTrueError) {
  const platform::StarPlatform p = paperish();
  for (double true_error : {0.1, 0.3}) {
    stats::Accumulator estimates;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      AdaptiveRumrOptions options;
      options.pilot_fraction = 0.5;  // Generous pilot for a tight estimate.
      AdaptiveRumrPolicy policy(p, 1000.0, options);
      (void)simulate(p, policy, sim::SimOptions::with_error(true_error, seed));
      ASSERT_TRUE(policy.estimated_error().has_value());
      estimates.add(*policy.estimated_error());
    }
    // The mean estimate should land within ~35% of the truth (samples are
    // few: one ratio per pilot chunk).
    EXPECT_NEAR(estimates.mean(), true_error, 0.35 * true_error) << "true " << true_error;
  }
}

TEST(AdaptiveRumr, FallsBackWithTooFewSamples) {
  const platform::StarPlatform p = paperish();
  AdaptiveRumrOptions options;
  options.pilot_fraction = 0.02;  // Pilot so small few completions arrive in time.
  options.min_samples = 1000;     // Unreachable.
  options.fallback_error = 0.123;
  AdaptiveRumrPolicy policy(p, 1000.0, options);
  (void)simulate(p, policy, sim::SimOptions::with_error(0.4, 5));
  ASSERT_TRUE(policy.estimated_error().has_value());
  EXPECT_DOUBLE_EQ(*policy.estimated_error(), 0.123);
}

TEST(AdaptiveRumr, ZeroPilotIsPureRumrWithFallback) {
  const platform::StarPlatform p = paperish();
  AdaptiveRumrOptions options;
  options.pilot_fraction = 0.0;
  options.fallback_error = 0.2;
  AdaptiveRumrPolicy policy(p, 1000.0, options);
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.2, 9));
  EXPECT_NEAR(r.metrics.engine.work_dispatched, 1000.0, 1e-6);
  EXPECT_DOUBLE_EQ(*policy.estimated_error(), 0.2);
}

TEST(AdaptiveRumr, FullPilotNeverBuildsRest) {
  const platform::StarPlatform p = paperish();
  AdaptiveRumrOptions options;
  options.pilot_fraction = 1.0;
  AdaptiveRumrPolicy policy(p, 1000.0, options);
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.2, 13));
  EXPECT_NEAR(r.metrics.engine.work_dispatched, 1000.0, 1e-6);
  EXPECT_FALSE(policy.estimated_error().has_value());
}

TEST(AdaptiveRumr, EstimateIsClampedToUnitInterval) {
  const platform::StarPlatform p = paperish();
  AdaptiveRumrOptions options;
  options.pilot_fraction = 0.4;
  AdaptiveRumrPolicy policy(p, 1000.0, options);
  (void)simulate(p, policy, sim::SimOptions::with_error(0.9, 17));
  ASSERT_TRUE(policy.estimated_error().has_value());
  EXPECT_GE(*policy.estimated_error(), 0.0);
  EXPECT_LE(*policy.estimated_error(), 1.0);
}

}  // namespace
}  // namespace rumr::core
