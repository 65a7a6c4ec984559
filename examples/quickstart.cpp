// Quickstart: schedule a divisible workload with RUMR and compare it with
// plain UMR under prediction errors.
//
// The single include below is the library's whole public surface. This walks
// it once:
//   1. describe the platform            (rumr::platform::StarPlatform)
//   2. solve & inspect a UMR schedule   (rumr::core::solve_umr)
//   3. execute audited runs             (rumr::Run -> rumr::RunResult)
//   4. read the observability record    (rumr::obs::RunMetrics)
//   5. render an execution Gantt trace  (rumr::sim::Trace) — the textual
//      equivalent of the paper's Figures 2 and 3.

#include <cstdio>
#include <filesystem>

#include "api/rumr.hpp"

int main() {
  using namespace rumr;

  // A homogeneous cluster out of the paper's Table 1: N = 10 workers,
  // bandwidth 1.5x the aggregate compute rate, non-trivial latencies.
  platform::HomogeneousParams params;
  params.workers = 10;
  params.speed = 1.0;        // 1 workload unit per second per worker
  params.bandwidth = 15.0;   // B = 1.5 * N * S
  params.comp_latency = 0.2; // 200 ms to start a computation
  params.comm_latency = 0.1; // 100 ms to initiate a transfer
  const platform::StarPlatform cluster = platform::StarPlatform::homogeneous(params);
  const double workload = 1000.0;

  std::printf("platform: %s\n", cluster.describe().c_str());
  std::printf("workload: %.0f units\n\n", workload);

  // --- 1. Inspect the UMR schedule ---------------------------------------
  const core::UmrSchedule schedule = core::solve_umr(cluster, workload);
  std::printf("UMR chooses M = %zu rounds (chunk growth ratio %.3f per round)\n",
              schedule.rounds, schedule.growth);
  std::printf("round chunk sizes (per worker): ");
  for (std::size_t j = 0; j < schedule.rounds; ++j) {
    std::printf("%s%.2f", j ? ", " : "", schedule.chunk[j][0]);
  }
  std::printf("\npredicted makespan: %.2f s\n\n", schedule.predicted_makespan);

  // --- 2. Perfect predictions: UMR's home turf ---------------------------
  // "umr-eager" is the dispatch-on-demand UMR variant (chunks go out as soon
  // as the uplink frees); every execute() is audited against the engine's
  // invariants before it returns.
  {
    // A Run holds a config::RunDescription — the same struct a run file
    // parses into — and is described by assigning its fields.
    Run run;
    config::RunDescription& description = run.description();
    description.platform = cluster;
    description.w_total = workload;
    description.algorithm = "umr-eager";
    description.sim_options.record_trace = true;
    const RunResult result = run.execute();
    const obs::RunMetrics& m = result.metrics;
    std::printf("UMR with perfect predictions: makespan %.2f s, %zu chunks, "
                "mean worker utilization %.1f%%\n",
                result.makespan, m.engine.dispatches,
                100.0 * m.engine.mean_worker_utilization);
    std::printf("observability: uplink busy %.1f%% of the run, %zu DES events, "
                "peak event-queue depth %zu\n",
                100.0 * m.engine.uplink_utilization, m.des.events_executed,
                m.des.queue_depth_high_water);
    std::printf("\nexecution trace (cf. paper Figs. 2-3):\n%s\n",
                result.trace.render_gantt(cluster.size(), 96).c_str());

    // How close is that to provably optimal?
    const analysis::ScheduleQuality quality =
        analysis::analyze_run(cluster, result.sim, workload);
    std::printf("schedule quality: %.1f%% worker efficiency, %.2fx the analytic lower bound\n",
                100.0 * quality.worker_efficiency, quality.optimality_gap);

    // Full-fidelity trace for chrome://tracing / Perfetto.
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    if (sim::save_chrome_tracing("results/quickstart_trace.json", result.trace)) {
      std::printf(
          "detailed trace written to results/quickstart_trace.json (open in chrome://tracing)\n");
    }
  }

  // --- 3. Prediction errors: where RUMR earns its R ----------------------
  std::printf("\nwith 30%% prediction error (40 repetitions each):\n");
  const std::size_t reps = 40;
  const double error = 0.3;
  // Mean makespan of `reps` repetitions with per-repetition seeds; the
  // scheduler is told `known_error`, the run suffers `error`.
  const auto mean_makespan = [&](const char* algorithm, double known_error) {
    Run run;
    config::RunDescription& description = run.description();
    description.platform = cluster;
    description.w_total = workload;
    description.algorithm = algorithm;
    description.known_error = known_error;
    description.sim_options = sim::SimOptions::with_error(error);
    description.repetitions = reps;
    stats::Accumulator makespans;
    for (const RunResult& r : run.execute_all()) makespans.add(r.makespan);
    return makespans.mean();
  };
  const double umr_mean = mean_makespan("umr-eager", 0.0);
  const double rumr_mean = mean_makespan("rumr", error);
  std::printf("  UMR : %.2f s mean makespan\n", umr_mean);
  std::printf("  RUMR: %.2f s mean makespan  (%.1f%% better)\n", rumr_mean,
              100.0 * (umr_mean - rumr_mean) / umr_mean);

  core::RumrOptions options;
  options.known_error = error;
  const core::RumrPolicy probe(cluster, workload, options);
  std::printf("  RUMR reserved %.0f units (%.0f%%) for its Factoring phase 2\n",
              probe.phase2_work(), 100.0 * probe.phase2_work() / workload);
  return 0;
}
