// bench_perf_json — machine-readable performance snapshot.
//
// Times the two quantities that bound sweep capacity — raw DES event
// throughput and full master-worker engine runs — with plain steady_clock
// timing (no google-benchmark dependency, so it runs in any build) and
// writes results/BENCH_des.json:
//
//   {
//     "des_chain_events_per_sec":  ...,   // serial event chain
//     "des_fanout_events_per_sec": ...,   // wide pre-scheduled fan-out
//     "engine_runs_per_sec":       ...,   // UMR runs under 30% error
//     "engine_events_per_sec":     ...,   // DES events inside those runs
//     "jobs_per_sec":              ...,   // open-system jobs served end to end
//     "sweep_cells_per_sec":       ...,   // sharded sweep grid cells completed
//     "race_sims_saved_ratio":     ...,   // fixed-budget sims / raced sims
//     "serve_requests_per_sec":    ...,   // warm-cache what-if batches served
//     "serve_warm_over_cold_ratio": ...   // cold request time / warm request time
//   }
//
// CI archives the file per commit; regression tooling diffs it. Numbers are
// machine-dependent by nature, so the file carries only rates — nothing that
// varies run-to-run at fixed performance (no dates, no hostnames).
//
// Usage: bench_perf_json [output-path]   (default results/BENCH_des.json)

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <vector>

#include "api/rumr.hpp"

namespace {

using namespace rumr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Serial dependent chain: each event schedules the next, so throughput is
/// bounded by per-event scheduling + dispatch cost.
double des_chain_events_per_sec() {
  constexpr std::size_t kChain = 200000;
  constexpr int kRounds = 5;
  std::size_t events = 0;
  const auto start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    des::Simulator sim;
    std::size_t remaining = kChain;
    std::function<void()> next = [&] {
      if (--remaining > 0) sim.schedule_in(1.0, next);
    };
    sim.schedule_at(0.0, next);
    sim.run();
    events += sim.events_processed();
  }
  return static_cast<double>(events) / seconds_since(start);
}

/// Wide fan-out: everything pre-scheduled, so throughput is bounded by the
/// priority-queue push/pop cost at depth.
double des_fanout_events_per_sec() {
  constexpr std::size_t kWidth = 100000;
  constexpr int kRounds = 5;
  std::size_t events = 0;
  const auto start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    des::Simulator sim;
    for (std::size_t i = 0; i < kWidth; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [] {});
    }
    sim.run();
    events += sim.events_processed();
  }
  return static_cast<double>(events) / seconds_since(start);
}

struct EngineRates {
  double runs_per_sec = 0.0;
  double events_per_sec = 0.0;
};

/// Full engine runs: UMR on the paper's 10-worker platform under 30% error,
/// the sweep harness's unit of work.
EngineRates engine_rates() {
  constexpr int kRuns = 200;
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 10, .speed = 1.0, .bandwidth = 15.0, .comp_latency = 0.2,
       .comm_latency = 0.1});
  std::size_t events = 0;
  const auto start = Clock::now();
  for (int run = 0; run < kRuns; ++run) {
    core::UmrPolicy policy(p, 1000.0);
    const sim::SimResult result =
        simulate(p, policy,
                 sim::SimOptions::with_error(0.3, static_cast<std::uint64_t>(run + 1)));
    events += result.events;
  }
  const double elapsed = seconds_since(start);
  return {static_cast<double>(kRuns) / elapsed, static_cast<double>(events) / elapsed};
}

/// Open-system throughput: jobs served end to end (arrival -> departure) by
/// the multi-job engine under fractional sharing at 70% offered load — the
/// unit of work of an open-system sweep point.
double jobs_per_sec() {
  constexpr int kRounds = 10;
  constexpr std::size_t kJobsPerRound = 40;
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 10, .speed = 1.0, .bandwidth = 15.0, .comp_latency = 0.2,
       .comm_latency = 0.1});
  std::size_t completed = 0;
  const auto start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    jobs::JobsOptions options;
    options.sharing = jobs::SharingPolicy::kFractional;
    options.stream = jobs::JobStreamSpec::poisson(
        jobs::JobStreamSpec::rate_for_load(p, 0.7, 300.0), kJobsPerRound, 300.0);
    options.stream.size_dist = jobs::SizeDistribution::kUniform;
    options.stream.size_spread = 0.4;
    options.known_error = 0.2;
    options.sim = sim::SimOptions::with_error(0.2, static_cast<std::uint64_t>(round + 1));
    completed += jobs::run_jobs(p, options).completed;
  }
  return static_cast<double>(completed) / seconds_since(start);
}

/// Sharded sweep throughput: completed grid cells per second through
/// run_sweep_streaming on a small closed-system grid (every hardware
/// thread), the unit of capacity behind "10^6-cell sweeps overnight".
double sweep_cells_per_sec() {
  constexpr int kRounds = 3;
  const std::vector<sweep::SweepPlatform> platforms = {
      sweep::SweepPlatform::from_config({10, 1.5, 0.1, 0.05}),
      sweep::SweepPlatform::from_config({4, 2.0, 0.3, 0.1})};
  const std::vector<sweep::AlgorithmSpec> lineup = {
      sweep::algorithm("rumr"), sweep::algorithm("umr"), sweep::algorithm("factoring")};
  sweep::SweepOptions options;
  options.errors = {0.0, 0.2, 0.4};
  options.repetitions = 8;
  options.rep_block = 2;
  options.w_total = 300.0;
  std::size_t cells = 0;
  const auto start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    sweep::run_sweep_streaming(platforms, lineup, options,
                               [&cells](const sweep::SweepCell&) { ++cells; });
  }
  return static_cast<double>(cells) / seconds_since(start);
}

/// Racing economy: how many fixed-budget simulations one raced cell of the
/// EXPERIMENTS.md demo grid replaces per simulation actually run. The race is
/// seeded and single-valued, so unlike the wall-clock rates above this metric
/// is exactly reproducible — any drift below baseline means the elimination
/// rule got less decisive, not that the machine got slower.
double race_sims_saved_ratio() {
  race::RaceOptions options;
  options.delta = 0.05;
  options.block = 16;
  options.max_reps = 2048;
  options.w_total = 300.0;
  options.threads = 0;
  const race::RaceResult result =
      race::race_cell(sweep::SweepPlatform::from_config({10, 1.5, 0.1, 0.05}),
                      sweep::extended_competitors(), 0.3, options);
  return result.sims_saved_ratio();
}

struct ServeRates {
  double requests_per_sec = 0.0;  ///< Warm-cache batch requests served per second.
  double warm_over_cold = 0.0;    ///< Cold request time / warm request time.
};

/// Serving throughput: one 16-query what-if batch handled end to end
/// (parse -> admission -> plan cache -> response bytes). Warm numbers come
/// from a cached server after one priming request; cold numbers from a
/// pass-through (capacity-0) server that re-solves every query — so the
/// ratio is the plan cache's speedup on a repeated request, the number the
/// serving acceptance criterion (>= 10x) gates on.
ServeRates serve_rates() {
  std::string payload = "{\"type\":\"batch\",\"id\":1,\"queries\":[";
  for (int i = 0; i < 16; ++i) {
    if (i != 0) payload += ',';
    payload +=
        "{\"platform\":{\"homogeneous\":{\"workers\":10,\"speed\":1,\"bandwidth\":15,"
        "\"comp_latency\":0.2,\"comm_latency\":0.1}},\"workload\":1000,"
        "\"algorithm\":\"rumr\",\"known_error\":0.3,\"error\":0.3,\"seed\":" +
        std::to_string(i + 1) + "}";
  }
  payload += "]}";

  serve::ServerOptions pass_through;
  pass_through.cache_capacity = 0;
  serve::Server cold_server{pass_through};
  constexpr int kColdRounds = 20;
  const auto cold_start = Clock::now();
  for (int round = 0; round < kColdRounds; ++round) (void)cold_server.handle(payload);
  const double cold_per_request = seconds_since(cold_start) / kColdRounds;

  serve::Server warm_server{serve::ServerOptions{}};
  (void)warm_server.handle(payload);  // Prime the cache.
  constexpr int kWarmRounds = 400;
  const auto warm_start = Clock::now();
  for (int round = 0; round < kWarmRounds; ++round) (void)warm_server.handle(payload);
  const double warm_per_request = seconds_since(warm_start) / kWarmRounds;

  return {1.0 / warm_per_request, cold_per_request / warm_per_request};
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "results/BENCH_des.json";

  const double chain = des_chain_events_per_sec();
  const double fanout = des_fanout_events_per_sec();
  const EngineRates engine = engine_rates();
  const double jobs_rate = jobs_per_sec();
  const double sweep_rate = sweep_cells_per_sec();
  const double race_ratio = race_sims_saved_ratio();
  const ServeRates serve = serve_rates();

  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_perf_json: cannot open %s for writing\n", path);
    return 1;
  }
  out << "{\n"
      << "  \"des_chain_events_per_sec\": " << chain << ",\n"
      << "  \"des_fanout_events_per_sec\": " << fanout << ",\n"
      << "  \"engine_runs_per_sec\": " << engine.runs_per_sec << ",\n"
      << "  \"engine_events_per_sec\": " << engine.events_per_sec << ",\n"
      << "  \"jobs_per_sec\": " << jobs_rate << ",\n"
      << "  \"sweep_cells_per_sec\": " << sweep_rate << ",\n"
      << "  \"race_sims_saved_ratio\": " << race_ratio << ",\n"
      << "  \"serve_requests_per_sec\": " << serve.requests_per_sec << ",\n"
      << "  \"serve_warm_over_cold_ratio\": " << serve.warm_over_cold << "\n"
      << "}\n";
  out.close();

  std::printf("DES chain : %.3g events/s\n", chain);
  std::printf("DES fanout: %.3g events/s\n", fanout);
  std::printf("engine    : %.3g runs/s, %.3g events/s\n", engine.runs_per_sec,
              engine.events_per_sec);
  std::printf("jobs      : %.3g jobs/s\n", jobs_rate);
  std::printf("sweep     : %.3g cells/s\n", sweep_rate);
  std::printf("race      : %.3gx sims saved\n", race_ratio);
  std::printf("serve     : %.3g req/s warm, %.3gx over cold\n", serve.requests_per_sec,
              serve.warm_over_cold);
  std::printf("written to %s\n", path);
  return 0;
}
