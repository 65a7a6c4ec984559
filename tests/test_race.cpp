/// \file test_race.cpp
/// Best-arm racing (race/race.hpp): statistical certification of the
/// successive-elimination core against synthetic known-gap oracles, the
/// anytime-bound helpers, thread byte-identity of engine-backed races, the
/// race auditor's violation coverage, and the facade's validation parity.
///
/// The certification suite is the empirical license for the observed-range
/// approximation documented in race/bounds.hpp: across >= 1000 seeded trials
/// per oracle family, the wrong-winner rate must stay at or below delta.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "analysis/bounds.hpp"
#include "api/rumr.hpp"
#include "check/race_audit.hpp"
#include "race/bounds.hpp"
#include "race/race.hpp"
#include "race/result.hpp"
#include "stats/rng.hpp"
#include "sweep/grid.hpp"
#include "sweep/scheduler_factory.hpp"

namespace {

using namespace rumr;

// --- helpers -----------------------------------------------------------------

bool same_accumulator(const stats::Accumulator& a, const stats::Accumulator& b) {
  return a.count() == b.count() && a.sum() == b.sum() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() && a.max() == b.max();
}

void expect_same_race(const race::RaceResult& a, const race::RaceResult& b) {
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_samples, b.total_samples);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  ASSERT_EQ(a.arms.size(), b.arms.size());
  for (std::size_t i = 0; i < a.arms.size(); ++i) {
    EXPECT_EQ(a.arms[i].name, b.arms[i].name);
    EXPECT_EQ(a.arms[i].samples, b.arms[i].samples);
    EXPECT_EQ(a.arms[i].eliminated, b.arms[i].eliminated);
    EXPECT_EQ(a.arms[i].eliminated_round, b.arms[i].eliminated_round);
    EXPECT_EQ(a.arms[i].lane_fingerprint, b.arms[i].lane_fingerprint);
    EXPECT_TRUE(same_accumulator(a.arms[i].reward, b.arms[i].reward));
  }
  ASSERT_EQ(a.eliminations.size(), b.eliminations.size());
  for (std::size_t i = 0; i < a.eliminations.size(); ++i) {
    EXPECT_EQ(a.eliminations[i].arm, b.eliminations[i].arm);
    EXPECT_EQ(a.eliminations[i].round, b.eliminations[i].round);
    EXPECT_EQ(a.eliminations[i].arm_lcb, b.eliminations[i].arm_lcb);
    EXPECT_EQ(a.eliminations[i].best_ucb, b.eliminations[i].best_ucb);
  }
}

/// A deterministic two-arm oracle with a structural gap: arm 0 always 0, arm
/// 1 always 1 (plus a tiny rep-dependent wobble so variances are nonzero).
/// Separates after a handful of rounds — the cheap source of audit-clean
/// results for the tamper tests.
race::RaceResult separable_race() {
  const race::ArmOracle oracle = [](std::size_t arm, std::size_t rep) {
    return static_cast<double>(arm) + 1e-3 * static_cast<double>(rep % 7);
  };
  race::RaceOptions options;
  options.block = 8;
  options.max_reps = 512;
  options.threads = 1;
  return race::run_race({"zero", "one"}, oracle, options);
}

// --- bounds ------------------------------------------------------------------

TEST(RaceBounds, RoundDeltaUnionStaysWithinDelta) {
  const double delta = 0.05;
  const std::size_t arms = 7;
  double spent = 0.0;
  for (std::size_t round = 1; round <= 10000; ++round) {
    spent += static_cast<double>(arms) * race::round_delta(delta, arms, round);
  }
  // sum_t 1/(t(t+1)) telescopes to 1: the union over arms and rounds can
  // never spend more than delta.
  EXPECT_LE(spent, delta * (1.0 + 1e-12));
  EXPECT_GT(spent, delta * 0.999);  // ...and it uses nearly all of it.
}

TEST(RaceBounds, ConfidenceRadiusGuardsAndMonotonicity) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(race::confidence_radius(1.0, 1.0, 0, 0.01), inf);
  EXPECT_EQ(race::confidence_radius(1.0, 1.0, 1, 0.01), inf);
  EXPECT_EQ(race::confidence_radius(1.0, 1.0, 100, 0.0), inf);
  EXPECT_EQ(race::confidence_radius(1.0, 1.0, 100, 1.0), inf);

  const double r100 = race::confidence_radius(1.0, 2.0, 100, 0.01);
  const double r400 = race::confidence_radius(1.0, 2.0, 400, 0.01);
  EXPECT_GT(r100, 0.0);
  EXPECT_LT(r400, r100);  // Shrinks with samples.
  // Grows with variance, range, and confidence demand.
  EXPECT_GT(race::confidence_radius(4.0, 2.0, 100, 0.01), r100);
  EXPECT_GT(race::confidence_radius(1.0, 8.0, 100, 0.01), r100);
  EXPECT_GT(race::confidence_radius(1.0, 2.0, 100, 0.0001), r100);
}

// --- statistical certification (synthetic known-gap oracles) -----------------

TEST(RaceCertification, GaussianArmsStayWithinDelta) {
  const std::vector<std::string> names = {"best", "second", "third", "worst"};
  const double means[] = {1.0, 1.3, 1.6, 2.0};
  const double sigma = 0.3;  // Runner-up gap equals one standard deviation.

  race::RaceOptions options;
  options.delta = 0.05;
  options.block = 50;
  options.max_reps = 4000;
  options.threads = 1;

  const std::size_t trials = 1000;
  std::size_t wrong = 0;
  std::size_t exhausted = 0;
  std::size_t top2_samples = 0;
  std::size_t rest_samples = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const race::ArmOracle oracle = [&means, sigma, trial](std::size_t arm, std::size_t rep) {
      // Pure function of (arm, rep): one throwaway engine per draw, seeded
      // from the full coordinate — the determinism contract the core needs.
      stats::Rng rng(stats::mix_seed(0xc0ffee, trial, arm, rep));
      return means[arm] + sigma * rng.standard_normal();
    };
    // audit_result stays on: every one of the 1000 ledgers also replays
    // through check::audit_race_result (throws on any violation).
    const race::RaceResult result = race::run_race(names, oracle, options);
    if (result.budget_exhausted) {
      ++exhausted;
    } else if (result.winner != 0) {
      ++wrong;
    }
    top2_samples += result.arms[0].samples + result.arms[1].samples;
    rest_samples += result.arms[2].samples + result.arms[3].samples;
  }

  // The certification guarantee: wrong winners at most delta of the trials.
  EXPECT_LE(static_cast<double>(wrong),
            options.delta * static_cast<double>(trials));
  // The budget is sized so exhaustion stays rare — an exhausted race makes
  // no certification claim, so a high rate would hollow the test out.
  EXPECT_LE(exhausted, trials / 20);
  // Sampling concentrates where the decision is hard: the top-2 arms must
  // absorb the clear majority of the simulation effort.
  EXPECT_GT(top2_samples, 2 * rest_samples);
}

TEST(RaceCertification, BernoulliArmsStayWithinDelta) {
  const std::vector<std::string> names = {"p20", "p50", "p80"};
  const double ps[] = {0.2, 0.5, 0.8};

  race::RaceOptions options;
  options.delta = 0.05;
  options.block = 50;
  options.max_reps = 2000;
  options.threads = 1;

  // Constant early blocks (all-zero or all-one) give an arm zero variance
  // AND zero per-arm spread — the degenerate case the pooled range exists
  // for. A spurious early elimination here would show up as a wrong winner.
  const std::size_t trials = 250;
  std::size_t wrong = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const race::ArmOracle oracle = [&ps, trial](std::size_t arm, std::size_t rep) {
      stats::Rng rng(stats::mix_seed(0xbead, trial, arm, rep));
      return rng.uniform01() < ps[arm] ? 1.0 : 0.0;
    };
    const race::RaceResult result = race::run_race(names, oracle, options);
    if (!result.budget_exhausted && result.winner != 0) ++wrong;
  }
  EXPECT_LE(static_cast<double>(wrong),
            options.delta * static_cast<double>(trials));
}

// --- determinism -------------------------------------------------------------

TEST(Race, SyntheticRaceByteIdenticalAcrossThreads) {
  const std::vector<std::string> names = {"a", "b", "c", "d", "e"};
  const race::ArmOracle oracle = [](std::size_t arm, std::size_t rep) {
    stats::Rng rng(stats::mix_seed(0xfeed, arm, rep));
    return static_cast<double>(arm) * 0.25 + rng.standard_normal();
  };
  race::RaceOptions options;
  options.block = 16;
  options.max_reps = 256;

  options.threads = 1;
  const race::RaceResult reference = race::run_race(names, oracle, options);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    expect_same_race(race::run_race(names, oracle, options), reference);
  }
}

TEST(Race, EngineRaceByteIdenticalAcrossThreads) {
  const sweep::SweepPlatform platform = sweep::SweepPlatform::from_config({6, 1.5, 0.1, 0.05});
  const std::vector<sweep::AlgorithmSpec> arms = {sweep::algorithm("rumr"), sweep::algorithm("umr"),
                                                  sweep::algorithm("factoring")};
  race::RaceOptions options;
  options.block = 8;
  options.max_reps = 48;
  options.w_total = 200.0;

  options.threads = 1;
  const race::RaceResult reference = race::race_cell(platform, arms, 0.3, options);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    expect_same_race(race::race_cell(platform, arms, 0.3, options), reference);
  }
}

TEST(Race, SlowdownObjectiveRescalesWithoutReordering) {
  const sweep::SweepPlatform platform = sweep::SweepPlatform::from_config({6, 1.5, 0.1, 0.05});
  const std::vector<sweep::AlgorithmSpec> arms = {sweep::algorithm("rumr"), sweep::algorithm("umr"),
                                                  sweep::algorithm("factoring")};
  race::RaceOptions options;
  options.block = 8;
  options.max_reps = 32;
  options.w_total = 200.0;
  options.threads = 1;
  const race::RaceResult makespan = race::race_cell(platform, arms, 0.3, options);

  options.objective = race::Objective::kSlowdown;
  const race::RaceResult slowdown = race::race_cell(platform, arms, 0.3, options);

  EXPECT_EQ(makespan.winner, slowdown.winner);
  const double bound =
      analysis::makespan_lower_bounds(platform.platform, options.w_total).combined();
  ASSERT_GT(bound, 0.0);
  for (std::size_t a = 0; a < makespan.arms.size(); ++a) {
    EXPECT_EQ(makespan.arms[a].samples, slowdown.arms[a].samples);
    EXPECT_NEAR(slowdown.arms[a].reward.mean(), makespan.arms[a].reward.mean() / bound,
                1e-9 * makespan.arms[a].reward.mean());
    EXPECT_GE(slowdown.arms[a].reward.mean(), 1.0);  // Never beats the bound.
  }
}

// --- the auditor's coverage --------------------------------------------------

TEST(RaceAudit, CleanLedgerPasses) {
  const race::RaceResult result = separable_race();
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.winner, 0u);
  ASSERT_EQ(result.eliminations.size(), 1u);
  EXPECT_TRUE(check::audit_race_result(result).ok());
}

TEST(RaceAudit, CatchesSampleLedgerMismatch) {
  race::RaceResult result = separable_race();
  result.total_samples += 1;
  const check::AuditReport report = check::audit_race_result(result);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("sample ledger"), std::string::npos);
}

TEST(RaceAudit, CatchesEliminatedWinner) {
  race::RaceResult result = separable_race();
  result.winner = 1;  // The eliminated arm.
  const check::AuditReport report = check::audit_race_result(result);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("was eliminated"), std::string::npos);
}

TEST(RaceAudit, CatchesNonExcludingBound) {
  race::RaceResult result = separable_race();
  // Claim the decision was made on a bound that did not actually exclude
  // the incumbent (and no longer recomputes from the tuple).
  result.eliminations.front().arm_lcb = result.eliminations.front().best_ucb - 1.0;
  const check::AuditReport report = check::audit_race_result(result);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("did NOT exclude"), std::string::npos);
}

TEST(RaceAudit, CatchesInconsistentBudgetFlag) {
  race::RaceResult result = separable_race();
  result.budget_exhausted = true;  // ...but only one arm survives.
  EXPECT_FALSE(check::audit_race_result(result).ok());
}

TEST(RaceAudit, CatchesPostEliminationSampling) {
  race::RaceResult result = separable_race();
  result.arms[1].reward.add(0.5);  // The eliminated arm kept sampling.
  result.arms[1].samples += 1;
  result.total_samples += 1;
  const check::AuditReport report = check::audit_race_result(result);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("kept sampling"), std::string::npos);
}

// --- validation parity -------------------------------------------------------

TEST(Race, OptionsValidateListsEveryProblem) {
  race::RaceOptions options;
  options.delta = 0.0;
  options.block = 1;
  options.max_reps = 1;
  options.w_total = -5.0;
  EXPECT_EQ(options.validate().size(), 4u);
}

TEST(Race, RunRaceRejectsEmptyRequest) {
  race::RaceOptions options;
  EXPECT_THROW((void)race::run_race({}, nullptr, options), std::invalid_argument);
}

TEST(Race, BuilderValidateReportsEveryProblem) {
  rumr::Race builder;
  EXPECT_TRUE(builder.validate().empty());  // Defaults are executable.

  builder.policies(std::vector<std::string>{"no-such-policy"});
  builder.options().delta = 2.0;
  builder.error() = -0.1;
  const std::vector<std::string> problems = builder.validate();
  EXPECT_EQ(problems.size(), 3u);
  EXPECT_THROW((void)builder.execute(), std::invalid_argument);

  builder.policies().clear();
  EXPECT_EQ(builder.validate().size(), 3u);  // The empty line-up replaces the bad name.
}

TEST(Race, BuilderMatchesRaceCellAndCanSkipItsAudits) {
  rumr::Race builder;
  builder.platform() = sweep::SweepPlatform::from_config({6, 1.5, 0.1, 0.05});
  builder.policies(std::vector<std::string>{"rumr", "factoring"});
  builder.options().max_reps = 16;
  builder.options().w_total = 200.0;
  builder.options().audit_runs = false;
  builder.options().audit_result = false;
  const race::RaceResult direct = race::race_cell(builder.platform(), builder.policies(),
                                                  builder.error(), builder.options());
  expect_same_race(builder.execute(), direct);
}

TEST(Race, SweepFacadeRaceMatchesRaceCell) {
  const sweep::PlatformConfig config{6, 1.5, 0.1, 0.05};
  const std::vector<sweep::AlgorithmSpec> arms = {sweep::algorithm("rumr"), sweep::algorithm("umr"),
                                                  sweep::algorithm("factoring")};
  rumr::Sweep sweep(rumr::RaceSweepOptions{
      .errors = {0.3},
      .race = {.delta = 0.05, .block = 8, .max_reps = 48, .threads = 4, .w_total = 200.0}});
  sweep.platforms() = sweep::wrap_grid({config});
  sweep.policies() = arms;
  const std::vector<race::RaceCell> cells = sweep.execute_race();
  ASSERT_EQ(cells.size(), 1u);

  race::RaceOptions options;
  options.block = 8;
  options.max_reps = 48;
  options.w_total = 200.0;
  options.threads = 1;
  const race::RaceResult direct =
      race::race_cell(sweep::SweepPlatform::from_config(config), arms, 0.3, options);
  expect_same_race(cells.front().result, direct);
}

TEST(Race, SweepFacadeCatchesModeConflicts) {
  // A raced Sweep runs only through execute_race(); its own problems are
  // the race options', the error axis', and the line-up's.
  rumr::Sweep raced(rumr::RaceSweepOptions{});
  raced.platforms() = sweep::wrap_grid({{6, 1.5, 0.1, 0.05}});
  EXPECT_TRUE(raced.validate().empty());
  EXPECT_THROW((void)raced.execute(), std::invalid_argument);
  EXPECT_THROW((void)raced.execute_jobs(), std::invalid_argument);

  std::get<rumr::RaceSweepOptions>(raced.options()).race.block = 1;
  std::get<rumr::RaceSweepOptions>(raced.options()).errors = {-0.1};
  raced.policies(std::vector<std::string>{"no-such-policy"});
  const std::vector<std::string> problems = raced.validate();
  ASSERT_EQ(problems.size(), 3u);
  EXPECT_NE(problems[0].find("block"), std::string::npos);
  EXPECT_NE(problems[1].find("error axis"), std::string::npos);
  EXPECT_NE(problems[2].find("no-such-policy"), std::string::npos);
  EXPECT_THROW((void)raced.execute_race(), std::invalid_argument);
}

}  // namespace
