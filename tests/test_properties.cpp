// Property-based tests: invariants that must hold for EVERY scheduler on
// randomly drawn platforms, workloads, and error levels. Parameterized gtest
// sweeps the whole algorithm line-up through the same checks.

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"
#include "sim/master_worker.hpp"
#include "sweep/scheduler_factory.hpp"

namespace rumr::sweep {
namespace {

struct PropertyCase {
  std::string name;
  AlgorithmSpec spec;
};

class AllSchedulers : public ::testing::TestWithParam<std::size_t> {
 public:
  static const std::vector<PropertyCase>& cases() {
    static const std::vector<PropertyCase> all = [] {
      std::vector<PropertyCase> cs;
      for (AlgorithmSpec& spec : extended_competitors()) {
        cs.push_back({spec.name, std::move(spec)});
      }
      cs.push_back({"RUMR-adaptive", algorithm("rumr-adaptive")});
      cs.push_back({"RUMR-80fixed", algorithm("rumr-80")});
      cs.push_back({"RUMR-inorder", algorithm("rumr-inorder")});
      return cs;
    }();
    return all;
  }
};

/// Draws a random homogeneous platform inside (a superset of) the Table 1
/// ranges plus a random workload and error.
struct RandomScenario {
  platform::StarPlatform platform;
  double w_total;
  double error;
};

RandomScenario draw_scenario(stats::Rng& rng) {
  const std::size_t n = 2 + rng.uniform_index(30);
  platform::HomogeneousParams params;
  params.workers = n;
  params.speed = rng.uniform(0.5, 4.0);
  params.bandwidth = rng.uniform(1.1, 2.5) * static_cast<double>(n) * params.speed;
  params.comp_latency = rng.uniform(0.0, 1.0);
  params.comm_latency = rng.uniform(0.0, 1.0);
  params.transfer_latency = rng.uniform(0.0, 0.2);
  return {platform::StarPlatform::homogeneous(params), rng.uniform(100.0, 2000.0),
          rng.uniform(0.0, 0.6)};
}

TEST_P(AllSchedulers, ConservesWorkAndRespectsLowerBoundsOnRandomScenarios) {
  const PropertyCase& test_case = cases()[GetParam()];
  stats::Rng rng(0xabcdef + GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const RandomScenario s = draw_scenario(rng);
    const auto policy = test_case.spec.make(s.platform, s.w_total, s.error);
    const sim::SimResult r =
        simulate(s.platform, *policy, sim::SimOptions::with_error(s.error, rng.next_u64()));

    // Work conservation (the engine enforces it too; this asserts the
    // outcome reached the result structure intact).
    EXPECT_NEAR(r.metrics.engine.work_dispatched, s.w_total, 1e-6 * s.w_total) << test_case.name;
    double computed = 0.0;
    for (const auto& w : r.workers) computed += w.work;
    EXPECT_NEAR(computed, s.w_total, 1e-6 * s.w_total) << test_case.name;

    // Makespan cannot beat the aggregate-compute bound by more than the
    // error model's best case (every ratio at least kMinRatio).
    const double min_compute = s.w_total / s.platform.total_speed();
    EXPECT_GE(r.makespan, min_compute * stats::ErrorModel::kMinRatio) << test_case.name;
    // Nor the first-byte bound: nothing computes before some data arrives.
    EXPECT_GT(r.makespan, 0.0) << test_case.name;

    // Chunk accounting is self-consistent.
    std::size_t chunks = 0;
    for (const auto& w : r.workers) chunks += w.chunks;
    EXPECT_EQ(chunks, r.metrics.engine.dispatches) << test_case.name;
  }
}

TEST_P(AllSchedulers, DeterministicForFixedSeed) {
  const PropertyCase& test_case = cases()[GetParam()];
  stats::Rng rng(0x5151 + GetParam());
  const RandomScenario s = draw_scenario(rng);
  const auto policy_a = test_case.spec.make(s.platform, s.w_total, 0.3);
  const auto policy_b = test_case.spec.make(s.platform, s.w_total, 0.3);
  const double a = simulate(s.platform, *policy_a, sim::SimOptions::with_error(0.3, 77)).makespan;
  const double b = simulate(s.platform, *policy_b, sim::SimOptions::with_error(0.3, 77)).makespan;
  EXPECT_DOUBLE_EQ(a, b) << test_case.name;
}

TEST_P(AllSchedulers, ZeroErrorRunsAreExactlyReproducible) {
  const PropertyCase& test_case = cases()[GetParam()];
  stats::Rng rng(0x9191 + GetParam());
  const RandomScenario s = draw_scenario(rng);
  const auto policy_a = test_case.spec.make(s.platform, s.w_total, 0.0);
  const auto policy_b = test_case.spec.make(s.platform, s.w_total, 0.0);
  sim::SimOptions opt_a;
  opt_a.seed = 1;
  sim::SimOptions opt_b;
  opt_b.seed = 2;  // Seed must be irrelevant without an error model.
  EXPECT_DOUBLE_EQ(simulate(s.platform, *policy_a, opt_a).makespan,
                   simulate(s.platform, *policy_b, opt_b).makespan)
      << test_case.name;
}

TEST_P(AllSchedulers, MakespanGrowsWithWorkload) {
  const PropertyCase& test_case = cases()[GetParam()];
  stats::Rng rng(0x7777 + GetParam());
  const RandomScenario s = draw_scenario(rng);
  const auto small = test_case.spec.make(s.platform, 500.0, 0.2);
  const auto large = test_case.spec.make(s.platform, 1500.0, 0.2);
  const double m_small =
      simulate(s.platform, *small, sim::SimOptions::with_error(0.2, 5)).makespan;
  const double m_large =
      simulate(s.platform, *large, sim::SimOptions::with_error(0.2, 5)).makespan;
  EXPECT_GT(m_large, m_small) << test_case.name;
}

std::string case_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string name = AllSchedulers::cases()[info.param].name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Lineup, AllSchedulers,
                         ::testing::Range<std::size_t>(0, AllSchedulers::cases().size()),
                         case_name);

}  // namespace
}  // namespace rumr::sweep
