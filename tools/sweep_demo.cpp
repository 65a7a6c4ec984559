/// \file sweep_demo.cpp
/// Self-auditing demo of the sharded streaming sweep engine.
///
/// Drives a small Table 1-style grid through the rumr::Sweep facade and
/// verifies the engine's determinism contract end to end:
///
///   1. thread-count invariance — threads {2, 8} reproduce the threads=1
///      cells byte for byte (every accumulator, counter, and sketch bucket);
///   2. shard-shape tolerance — rep_block {1, 3} build different merge trees
///      but agree with the single-shard reference within
///      sweep::audit_cell_merge's 1e-9 envelope;
///   3. streaming exactly-once — given a consumer, execute() streams every
///      grid cell to it exactly once and buffers nothing;
///   4. open-system parity — a jobs-mode grid with retain_jobs = false
///      (O(1) per-run memory) is also thread-count invariant.
///
/// Exit code is nonzero when any check fails, so CI can gate on it under
/// both the release and sanitizer presets.

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "api/rumr.hpp"

namespace {

using namespace rumr;

using CellKey = std::tuple<std::size_t, std::size_t, std::size_t>;

bool same_accumulator(const stats::Accumulator& a, const stats::Accumulator& b) {
  return a.count() == b.count() && a.sum() == b.sum() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() && a.max() == b.max();
}

bool same_cell(const sweep::CellStats& a, const sweep::CellStats& b) {
  return a.reps == b.reps && a.ref_wins == b.ref_wins &&
         a.ref_wins_by_10pct == b.ref_wins_by_10pct && same_accumulator(a.makespan, b.makespan) &&
         same_accumulator(a.uplink_utilization, b.uplink_utilization) &&
         same_accumulator(a.worker_utilization, b.worker_utilization) &&
         same_accumulator(a.events, b.events) &&
         same_accumulator(a.hol_blocking_time, b.hol_blocking_time) &&
         same_accumulator(a.work_redispatched, b.work_redispatched) &&
         a.makespan_quantiles.bucket_counts() == b.makespan_quantiles.bucket_counts();
}

bool same_jobs_cell(const sweep::JobsCellStats& a, const sweep::JobsCellStats& b) {
  return a.arrived == b.arrived && a.completed == b.completed && a.rejected == b.rejected &&
         a.shed == b.shed && a.manager_events == b.manager_events &&
         a.oracle_events == b.oracle_events && a.reps == b.reps &&
         same_accumulator(a.mean_response, b.mean_response) &&
         same_accumulator(a.mean_slowdown, b.mean_slowdown) &&
         same_accumulator(a.utilization, b.utilization) &&
         same_accumulator(a.horizon, b.horizon) &&
         a.response_times.bucket_counts() == b.response_times.bucket_counts() &&
         a.slowdowns.bucket_counts() == b.slowdowns.bucket_counts();
}

/// The closed-system demo grid: two platforms x two errors x three policies,
/// eight repetitions sharded `rep_block` repetitions per shard.
rumr::Sweep closed_sweep(std::size_t threads, std::size_t rep_block = 2) {
  rumr::Sweep study(sweep::SweepOptions{.errors = {0.1, 0.4},
                                        .repetitions = 8,
                                        .w_total = 300.0,
                                        .threads = threads,
                                        .rep_block = rep_block});
  study.platforms() = sweep::wrap_grid({{10, 1.5, 0.1, 0.05}, {4, 2.0, 0.3, 0.1}});
  study.policies(std::vector<std::string>{"rumr", "umr", "factoring"});
  return study;
}

std::map<CellKey, sweep::SweepCell> by_key(const std::vector<sweep::SweepCell>& cells) {
  std::map<CellKey, sweep::SweepCell> out;
  for (const auto& cell : cells)
    out.emplace(CellKey{cell.platform_index, cell.error_index, cell.algorithm_index}, cell);
  return out;
}

bool expect(bool ok, const std::string& what) {
  std::cout << "  [" << (ok ? "ok" : "FAIL") << "] " << what << "\n";
  return ok;
}

}  // namespace

int main() {
  bool all_ok = true;

  std::cout << "closed-system grid (2 platforms x 2 errors x 3 policies, 8 reps):\n";
  const auto reference = by_key(closed_sweep(1).execute());
  all_ok &= expect(reference.size() == 12, "reference sweep produced all 12 cells");

  // 1. Byte-identity across thread counts.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto cells = by_key(closed_sweep(threads).execute());
    bool identical = cells.size() == reference.size();
    for (const auto& [key, cell] : reference)
      identical = identical && same_cell(cells.at(key).stats, cell.stats);
    all_ok &= expect(identical,
                    "threads=" + std::to_string(threads) + " is byte-identical to threads=1");
  }

  // 2. Different shard shapes agree within the merge-audit envelope.
  const auto single_shard = by_key(closed_sweep(0, 8).execute());
  for (const std::size_t block : {std::size_t{1}, std::size_t{3}}) {
    const auto cells = by_key(closed_sweep(0, block).execute());
    check::AuditReport report;
    for (const auto& [key, cell] : single_shard)
      sweep::audit_cell_merge("rep_block=" + std::to_string(block), cells.at(key).stats,
                              cell.stats, report);
    all_ok &= expect(report.ok(), "rep_block=" + std::to_string(block) +
                                     " matches the single-shard reference (1e-9): " +
                                     (report.ok() ? "ok" : report.summary()));
  }

  // 3. Streaming mode: a consumer gets every cell exactly once, nothing is
  // buffered.
  std::map<CellKey, int> seen;
  const auto streamed = closed_sweep(4).execute([&seen](const sweep::SweepCell& cell) {
    ++seen[{cell.platform_index, cell.error_index, cell.algorithm_index}];
  });
  bool exactly_once = streamed.empty() && seen.size() == reference.size();
  for (const auto& [key, count] : seen) exactly_once = exactly_once && count == 1;
  // The label is kept verbatim so the demo's stdout stays comparable byte for
  // byte with earlier builds.
  all_ok &= expect(exactly_once, "a consumer receives each of the 12 cells exactly once");

  // 4. Open-system mode: streamed jobs (retain_jobs = false), thread-invariant.
  std::cout << "open-system grid (1 platform x 2 loads, 2 reps, streamed jobs):\n";
  const auto open_sweep = [](std::size_t threads) {
    sweep::JobsSweepOptions options;
    options.loads = {0.4, 0.7};
    options.repetitions = 2;
    options.threads = threads;
    options.base.stream = jobs::JobStreamSpec::poisson(1.0, 12, 100.0);
    options.base.known_error = 0.2;
    options.base.sim = sim::SimOptions::with_error(0.2, 1);
    options.base.retain_jobs = false;
    options.rep_block = 1;
    rumr::Sweep study(options);
    study.platforms() = sweep::wrap_grid({{6, 1.5, 0.2, 0.1}});
    return study;
  };
  const auto jobs_reference = open_sweep(1).execute_jobs();
  all_ok &= expect(jobs_reference.size() == 2, "open-system sweep produced both load cells");
  const auto jobs_parallel = open_sweep(4).execute_jobs();
  bool jobs_identical = jobs_parallel.size() == jobs_reference.size();
  for (std::size_t i = 0; i < jobs_reference.size() && jobs_identical; ++i)
    jobs_identical = same_jobs_cell(jobs_parallel[i].stats, jobs_reference[i].stats);
  all_ok &= expect(jobs_identical, "threads=4 open-system cells are byte-identical to threads=1");

  std::cout << (all_ok ? "sweep demo: OK\n" : "sweep demo: FAILED\n");
  return all_ok ? 0 : 1;
}
