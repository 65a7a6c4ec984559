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
#include <utility>
#include <vector>

#include "api/rumr.hpp"

namespace {

using namespace rumr;

struct Scenario {
  std::string name;
  Run run;
};

/// A run of `algorithm` over 1000 workload units on `cluster`, told
/// `known_error`, with the engine options `sim_options`.
Run make_run(const platform::StarPlatform& cluster, const char* algorithm, double known_error,
             sim::SimOptions sim_options) {
  Run run;
  config::RunDescription& description = run.description();
  description.platform = cluster;
  description.w_total = 1000.0;
  description.algorithm = algorithm;
  description.known_error = known_error;
  description.sim_options = std::move(sim_options);
  return run;
}

std::vector<Scenario> make_scenarios() {
  platform::HomogeneousParams params;
  params.workers = 10;
  params.speed = 1.0;
  params.bandwidth = 15.0;
  params.comp_latency = 0.2;
  params.comm_latency = 0.1;
  const platform::StarPlatform cluster = platform::StarPlatform::homogeneous(params);

  std::vector<Scenario> scenarios;

  sim::SimOptions perfect;
  perfect.seed = 11;
  scenarios.push_back({"UMR, perfect predictions", make_run(cluster, "umr-eager", 0.0, perfect)});

  scenarios.push_back({"RUMR, 30% prediction error",
                       make_run(cluster, "rumr", 0.3, sim::SimOptions::with_error(0.3, 12))});

  {
    // Timetable-driven UMR under heavy error with the classic single-slot
    // front end: the recipe for head-of-line blocking.
    sim::SimOptions options = sim::SimOptions::with_error(0.5, 13);
    options.worker_buffer_capacity = 1;
    scenarios.push_back(
        {"UMR timetable, 50% error (HOL-blocking prone)", make_run(cluster, "umr", 0.0, options)});
  }

  {
    sim::SimOptions options = sim::SimOptions::with_error(0.3, 14);
    options.uplink_channels = 2;
    scenarios.push_back(
        {"Factoring, two uplink channels", make_run(cluster, "factoring", 0.0, options)});
  }

  {
    sim::SimOptions options = sim::SimOptions::with_error(0.2, 15);
    options.output_ratio = 0.1;
    scenarios.push_back({"RUMR with 10% output data", make_run(cluster, "rumr", 0.2, options)});
  }

  {
    sim::SimOptions options = sim::SimOptions::with_error(0.1, 16);
    options.faults = faults::FaultSpec::transient(400.0, 40.0);
    scenarios.push_back(
        {"RUMR under transient faults (MTBF 400s)", make_run(cluster, "rumr", 0.1, options)});
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
