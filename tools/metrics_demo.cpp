/// \file metrics_demo.cpp
/// Self-auditing tour of the observability layer (rumr::obs).
///
/// Executes one run per scenario — perfect predictions, heavy prediction
/// error, head-of-line-blocking-prone buffering, multi-channel uplink, the
/// output-data model, and transient worker faults — through the public
/// rumr::Run facade, prints the headline metrics of each, and audits every
/// result with check::audit_sim_result (which verifies the observability
/// identities: uplink busy + idle tiles the makespan, per-worker
/// {compute, aborted, idle, down} spans partition the run, the DES kernel
/// conserved events). Exit code is nonzero when any scenario fails its
/// audit, so the `metrics_demo` ctest case (label `regression`) uses this
/// as an end-to-end gate for the metrics subsystem under every preset.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "api/rumr.hpp"

namespace {

using namespace rumr;

struct Scenario {
  std::string name;
  Run run;
};

std::vector<Scenario> make_scenarios() {
  platform::HomogeneousParams params;
  params.workers = 10;
  params.speed = 1.0;
  params.bandwidth = 15.0;
  params.comp_latency = 0.2;
  params.comm_latency = 0.1;
  const platform::StarPlatform cluster = platform::StarPlatform::homogeneous(params);
  const double workload = 1000.0;

  std::vector<Scenario> scenarios;

  scenarios.push_back(
      {"UMR, perfect predictions",
       Run().platform(cluster).workload(workload).algorithm("umr-eager").seed(11)});

  scenarios.push_back({"RUMR, 30% prediction error",
                       Run()
                           .platform(cluster)
                           .workload(workload)
                           .algorithm("rumr")
                           .known_error(0.3)
                           .error(0.3)
                           .seed(12)});

  {
    // Timetable-driven UMR under heavy error with the classic single-slot
    // front end: the recipe for head-of-line blocking.
    Run run = Run().platform(cluster).workload(workload).algorithm("umr").error(0.5).seed(13);
    run.description().sim_options.worker_buffer_capacity = 1;
    scenarios.push_back({"UMR timetable, 50% error (HOL-blocking prone)", std::move(run)});
  }

  {
    Run run =
        Run().platform(cluster).workload(workload).algorithm("factoring").error(0.3).seed(14);
    run.description().sim_options.uplink_channels = 2;
    scenarios.push_back({"Factoring, two uplink channels", std::move(run)});
  }

  {
    Run run = Run().platform(cluster).workload(workload).algorithm("rumr").known_error(0.2)
                  .error(0.2).seed(15);
    run.description().sim_options.output_ratio = 0.1;
    scenarios.push_back({"RUMR with 10% output data", std::move(run)});
  }

  {
    Run run = Run().platform(cluster).workload(workload).algorithm("rumr").known_error(0.1)
                  .error(0.1).seed(16);
    run.description().sim_options.faults = faults::FaultSpec::transient(400.0, 40.0);
    scenarios.push_back({"RUMR under transient faults (MTBF 400s)", std::move(run)});
  }

  return scenarios;
}

void print_metrics(const obs::RunMetrics& m) {
  std::printf("  makespan %.2f s | uplink busy %.1f%% (%.2f s transfer + %.2f s HOL) | "
              "worker util %.1f%%\n",
              m.makespan, 100.0 * m.engine.uplink_utilization, m.engine.uplink_transfer_time,
              m.engine.hol_blocking_time, 100.0 * m.engine.mean_worker_utilization);
  std::printf("  %zu dispatches, %zu completions, %zu re-dispatches | chunk sizes "
              "[%.2f, %.2f] mean %.2f\n",
              m.engine.dispatches, m.engine.completions, m.engine.redispatches,
              m.engine.chunk_sizes.min(), m.engine.chunk_sizes.max(), m.engine.chunk_sizes.mean());
  std::printf("  DES: %zu events (peak queue %zu)", m.des.events_executed,
              m.des.queue_depth_high_water);
  if (m.faults.failures > 0 || m.faults.fencings > 0) {
    std::printf(" | faults: %zu failures, %zu fencings (%zu false), %zu rejoins",
                m.faults.failures, m.faults.fencings, m.faults.false_suspicions,
                m.faults.rejoins);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool dump_json = argc > 1 && std::string(argv[1]) == "--json";

  bool all_ok = true;
  for (Scenario& scenario : make_scenarios()) {
    std::printf("%s\n", scenario.name.c_str());
    try {
      // execute() already audits (work conservation + observability
      // identities) and throws check::CheckError on a violation.
      const RunResult result = scenario.run.execute();
      print_metrics(result.metrics);
      if (dump_json) std::printf("  %s\n", obs::to_json(result.metrics).c_str());
    } catch (const std::exception& error) {
      std::printf("  FAILED: %s\n", error.what());
      all_ok = false;
    }
    std::printf("\n");
  }

  if (!all_ok) {
    std::fprintf(stderr, "metrics_demo: at least one scenario failed its audit\n");
    return 1;
  }
  std::printf("all scenarios passed their observability audits\n");
  return 0;
}
