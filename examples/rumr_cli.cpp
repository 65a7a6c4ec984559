// rumr_cli — run a scheduling algorithm described by a configuration file
// and report makespans (the APST-style "practical execution environment"
// front end of the paper's section 6, in simulation).
//
// Usage:
//   rumr_cli <run-description-file> [--gantt] [--metrics] [--algorithm NAME]
//
// See examples/cluster.rumr for the file format. --algorithm overrides the
// [schedule] section, making A/B comparisons a shell loop:
//
//   for a in rumr umr factoring; do ./rumr_cli cluster.rumr --algorithm $a; done
//
// --metrics dumps the final repetition's full observability record as JSON.

#include <cstdio>
#include <cstring>
#include <exception>

#include "api/rumr.hpp"

int main(int argc, char** argv) {
  using namespace rumr;

  const char* path = nullptr;
  const char* algorithm_override = nullptr;
  bool gantt = false;
  bool metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gantt") == 0) {
      gantt = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--algorithm") == 0 && i + 1 < argc) {
      algorithm_override = argv[++i];
    } else if (argv[i][0] != '-') {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: rumr_cli <run-description-file> [--gantt] [--metrics] "
                 "[--algorithm NAME]\n"
                 "see examples/cluster.rumr for the file format\n");
    return 2;
  }

  try {
    Run run = Run::from_file(path);
    config::RunDescription& desc = run.description();
    // Case-folded like the file's [schedule] algorithm.
    if (algorithm_override != nullptr) desc.algorithm = config::lower_ascii(algorithm_override);
    desc.sim_options.record_trace = gantt;

    std::printf("platform  : %s\n", desc.platform.describe().c_str());
    std::printf("workload  : %.0f units\n", desc.w_total);
    std::printf("algorithm : %s (planning error %.2f)\n", desc.algorithm.c_str(),
                desc.known_error);
    std::printf("simulation: error %.2f, %zu repetition(s)\n\n",
                desc.sim_options.comm_error.base.error(), desc.repetitions);

    const std::vector<RunResult> results = run.execute_all();
    stats::Accumulator makespans;
    for (const RunResult& r : results) makespans.add(r.makespan);
    const RunResult& last = results.back();

    if (results.size() == 1) {
      std::printf("makespan  : %.3f s\n", makespans.mean());
    } else {
      std::printf("makespan  : %.3f s mean, %.3f s sd, [%.3f, %.3f] min/max over %zu reps\n",
                  makespans.mean(), makespans.stddev(), makespans.min(), makespans.max(),
                  results.size());
    }
    std::printf("chunks    : %zu dispatched, mean worker utilization %.1f%%, "
                "uplink busy %.1f%%\n",
                last.metrics.engine.dispatches,
                100.0 * last.metrics.engine.mean_worker_utilization,
                100.0 * last.metrics.engine.uplink_utilization);
    if (gantt) {
      std::printf("\n%s", last.trace.render_gantt(desc.platform.size(), 96).c_str());
    }
    if (metrics) {
      std::printf("\n%s\n", obs::to_json(last.metrics).c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
