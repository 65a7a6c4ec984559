/// \file race_demo.cpp
/// Self-auditing demo of best-arm scheduler racing (race/race.hpp).
///
/// Races the paper's extended line-up (RUMR, UMR, MI-1..4, Factoring, FSC)
/// over a small EXPERIMENTS.md grid through the rumr::Sweep facade and
/// verifies the racing claims end to end:
///
///   1. certification — every cell separates a single winner at delta = 0.05
///      within budget, and every recorded elimination ledger replays cleanly
///      through check::audit_race_result;
///   2. winner parity — each cell's raced winner equals the argmin of a
///      fixed-repetition sweep spending the full budget on every arm over
///      the same seed lanes;
///   3. economy — racing spends at least 3x fewer simulations than that
///      fixed-repetition sweep (the per-cell ratios are printed);
///   4. determinism — threads {0, 1, 2, 8} reproduce a race byte for byte
///      (accumulators, lane fingerprints, elimination ledger, winner)
///      through the rumr::Race facade;
///   5. streaming exactly-once — given a consumer, execute_race() streams
///      every grid cell to it exactly once and buffers nothing.
///
/// The line-up choice matters: successive elimination certifies by
/// separating every arm from the *best* arm, so it needs the runner-up gap
/// to be statistical, not structural. The racing_competitors() ablation
/// line-up intentionally contains near-ties (at known_error 0.3 RUMR's split
/// formula lands on ~70% phase 1, making RUMR and RUMR-70 byte-identical
/// arms) — racing it exhausts the budget by construction, an outcome pinned
/// by the race-small golden fixture rather than demoed here.
///
/// Exit code is nonzero when any check fails, so CI can gate on it under
/// both the release and sanitizer presets.

#include <cstddef>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/rumr.hpp"

namespace {

using namespace rumr;

constexpr double kDelta = 0.05;
constexpr std::size_t kBudget = 2048;  ///< Per-arm repetition budget.
constexpr std::size_t kBlock = 16;     ///< Repetitions per round.
constexpr double kWorkload = 300.0;

/// The demo grid (EXPERIMENTS.md "raced grid"): two Table 1-style platforms
/// x two high-error regimes, where the line-up's gaps are widest.
std::vector<sweep::PlatformConfig> demo_platforms() {
  return {{10, 1.5, 0.1, 0.05}, {20, 1.2, 0.3, 0.1}};
}

std::vector<double> demo_errors() { return {0.3, 0.45}; }

rumr::Sweep raced_sweep() {
  rumr::Sweep study(rumr::RaceSweepOptions{
      .errors = demo_errors(),
      .race = {.delta = kDelta, .block = kBlock, .max_reps = kBudget, .threads = 4,
               .w_total = kWorkload}});
  study.platforms() = sweep::wrap_grid(demo_platforms());
  study.policies() = sweep::extended_competitors();
  return study;
}

bool expect(bool ok, const std::string& what) {
  std::cout << "  [" << (ok ? "ok" : "FAIL") << "] " << what << "\n";
  return ok;
}

bool same_accumulator(const stats::Accumulator& a, const stats::Accumulator& b) {
  return a.count() == b.count() && a.sum() == b.sum() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() && a.max() == b.max();
}

bool same_race(const race::RaceResult& a, const race::RaceResult& b) {
  if (a.winner != b.winner || a.rounds != b.rounds || a.total_samples != b.total_samples ||
      a.budget_exhausted != b.budget_exhausted || a.arms.size() != b.arms.size() ||
      a.eliminations.size() != b.eliminations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.arms.size(); ++i) {
    const race::ArmRecord& x = a.arms[i];
    const race::ArmRecord& y = b.arms[i];
    if (x.name != y.name || x.samples != y.samples || x.eliminated != y.eliminated ||
        x.eliminated_round != y.eliminated_round || x.lane_fingerprint != y.lane_fingerprint ||
        !same_accumulator(x.reward, y.reward)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.eliminations.size(); ++i) {
    const race::EliminationRecord& x = a.eliminations[i];
    const race::EliminationRecord& y = b.eliminations[i];
    if (x.arm != y.arm || x.best != y.best || x.round != y.round || x.samples != y.samples ||
        x.arm_lcb != y.arm_lcb || x.best_ucb != y.best_ucb || x.range != y.range) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bool all_ok = true;
  const std::size_t arms = sweep::extended_competitors().size();

  std::cout << "raced grid (2 platforms x 2 errors x " << arms << " arms, delta " << kDelta
            << ", budget " << kBudget << "):\n";
  const std::vector<race::RaceCell> raced = raced_sweep().execute_race();
  all_ok &= expect(raced.size() == 4, "raced sweep produced all 4 cells");

  // 1. Every cell certified, every ledger audit-clean.
  for (const race::RaceCell& cell : raced) {
    const std::string where = cell.platform_label + " err=" + std::to_string(cell.error);
    const check::AuditReport audit = check::audit_race_result(cell.result);
    all_ok &= expect(audit.ok(), where + ": elimination ledger replays cleanly" +
                                     (audit.ok() ? "" : ": " + audit.summary()));
    all_ok &= expect(!cell.result.budget_exhausted,
                     where + ": certified a single winner within budget");
  }

  // 2 + 3. Winner parity with — and economy over — the fixed-repetition sweep.
  rumr::Sweep fixed(sweep::SweepOptions{
      .errors = demo_errors(), .repetitions = kBudget, .w_total = kWorkload, .threads = 4});
  fixed.platforms() = sweep::wrap_grid(demo_platforms());
  fixed.policies() = sweep::extended_competitors();
  const std::vector<sweep::SweepCell> fixed_cells = fixed.execute();

  std::map<std::pair<std::size_t, std::size_t>, std::pair<std::string, double>> fixed_best;
  for (const sweep::SweepCell& cell : fixed_cells) {
    const auto key = std::make_pair(cell.platform_index, cell.error_index);
    const double mean = cell.stats.makespan.mean();
    const auto it = fixed_best.find(key);
    if (it == fixed_best.end() || mean < it->second.second) {
      fixed_best[key] = {cell.algorithm, mean};
    }
  }
  double worst_ratio = 0.0;
  bool have_ratio = false;
  for (const race::RaceCell& cell : raced) {
    const std::string where = cell.platform_label + " err=" + std::to_string(cell.error);
    const std::string& raced_winner = cell.result.arms[cell.result.winner].name;
    const std::string& fixed_winner =
        fixed_best.at({cell.platform_index, cell.error_index}).first;
    all_ok &= expect(raced_winner == fixed_winner,
                     where + ": raced winner (" + raced_winner +
                         ") matches the fixed-rep argmin (" + fixed_winner + ")");
    const double ratio = cell.result.sims_saved_ratio();
    if (!have_ratio || ratio < worst_ratio) worst_ratio = ratio;
    have_ratio = true;
    std::printf("       %s: %zu sims vs %zu fixed (%.1fx fewer)\n", where.c_str(),
                cell.result.total_samples, cell.result.fixed_budget_samples(), ratio);
  }
  all_ok &= expect(have_ratio && worst_ratio >= 3.0,
                   "every cell raced with >= 3x fewer simulations than fixed-rep");

  // 4. Byte-identity across thread counts through the rumr::Race facade.
  const auto one_race = [&](std::size_t threads) {
    rumr::Race race;
    race.platform() = sweep::SweepPlatform::from_config(demo_platforms().front());
    race.policies() = sweep::extended_competitors();
    race.error() = 0.3;
    race.options() = {.delta = kDelta, .block = kBlock, .max_reps = kBudget,
                      .threads = threads, .w_total = kWorkload};
    return race.execute();
  };
  const race::RaceResult reference = one_race(1);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    all_ok &= expect(same_race(one_race(threads), reference),
                     "threads=" + std::to_string(threads) + " race is byte-identical to threads=1");
  }

  // 5. Streaming mode: a consumer gets every cell exactly once, nothing is
  // buffered.
  std::map<std::pair<std::size_t, std::size_t>, int> seen;
  const std::vector<race::RaceCell> streamed =
      raced_sweep().execute_race([&seen](const race::RaceCell& cell) {
        ++seen[{cell.platform_index, cell.error_index}];
      });
  bool exactly_once = streamed.empty() && seen.size() == raced.size();
  for (const auto& [key, count] : seen) exactly_once = exactly_once && count == 1;
  // The label is kept verbatim so the demo's stdout stays comparable byte for
  // byte with earlier builds.
  all_ok &= expect(exactly_once, "a consumer receives each of the 4 cells exactly once");

  std::cout << (all_ok ? "race demo: OK\n" : "race demo: FAILED\n");
  return all_ok ? 0 : 1;
}
