// Google-benchmark microbenchmarks for the schedule solvers. Context: the
// paper reports its bisection solve takes ~0.07 s on a 400 MHz PIII; both of
// our solvers are orders of magnitude below that on modern hardware, so the
// "schedule computation is negligible" assumption holds with huge margin.

#include <benchmark/benchmark.h>

#include "baselines/factoring.hpp"
#include "baselines/multi_installment.hpp"
#include "core/rumr.hpp"
#include "core/umr.hpp"

namespace {

using namespace rumr;

platform::StarPlatform make_platform(std::size_t n) {
  return platform::StarPlatform::homogeneous(
      {.workers = n, .speed = 1.0, .bandwidth = 1.5 * static_cast<double>(n),
       .comp_latency = 0.2, .comm_latency = 0.1});
}

void BM_UmrSolveScan(benchmark::State& state) {
  const platform::StarPlatform p = make_platform(static_cast<std::size_t>(state.range(0)));
  core::UmrOptions options;
  options.method = core::UmrSolverMethod::kScan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_umr(p, 1000.0, options));
  }
}
BENCHMARK(BM_UmrSolveScan)->Arg(10)->Arg(50)->Arg(200);

void BM_UmrSolveBisection(benchmark::State& state) {
  const platform::StarPlatform p = make_platform(static_cast<std::size_t>(state.range(0)));
  core::UmrOptions options;
  options.method = core::UmrSolverMethod::kBisection;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_umr(p, 1000.0, options));
  }
}
BENCHMARK(BM_UmrSolveBisection)->Arg(10)->Arg(50)->Arg(200);

void BM_UmrSolveHeterogeneous(benchmark::State& state) {
  std::vector<platform::WorkerSpec> workers;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    const double speed = 1.0 + static_cast<double>(i % 4);
    workers.push_back({speed, 3.0 * speed * static_cast<double>(n), 0.2, 0.1, 0.0});
  }
  const platform::StarPlatform p{std::move(workers)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_umr(p, 1000.0));
  }
}
BENCHMARK(BM_UmrSolveHeterogeneous)->Arg(10)->Arg(50);

void BM_MiSolve(benchmark::State& state) {
  const platform::StarPlatform p = make_platform(static_cast<std::size_t>(state.range(0)));
  const auto installments = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::solve_multi_installment(p, 1000.0, installments));
  }
}
BENCHMARK(BM_MiSolve)
    ->Args({10, 2})
    ->Args({10, 4})
    ->Args({50, 1})
    ->Args({50, 2})
    ->Args({50, 3})
    ->Args({50, 4});

void BM_FactoringChunks(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  baselines::FactoringOptions options;
  options.min_chunk = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::factoring_chunks(1000.0, n, options));
  }
}
BENCHMARK(BM_FactoringChunks)->Arg(10)->Arg(50);

void BM_RumrConstruction(benchmark::State& state) {
  const platform::StarPlatform p = make_platform(static_cast<std::size_t>(state.range(0)));
  core::RumrOptions options;
  options.known_error = 0.3;
  for (auto _ : state) {
    core::RumrPolicy policy(p, 1000.0, options);
    benchmark::DoNotOptimize(policy.phase2_work());
  }
}
BENCHMARK(BM_RumrConstruction)->Arg(10)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
