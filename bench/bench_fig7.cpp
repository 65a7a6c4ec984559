// Reproduces the paper's Figure 7: RUMR with a PLAIN (in-order) UMR in
// phase 1, normalized to original RUMR (out-of-order phase 1), versus error.
// Expected shape: out-of-order dispatch buys only ~1% at high error and is
// marginally counterproductive at very low error — "most of the
// effectiveness of RUMR comes from the division into two phases".

#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace rumr;
  const bench::BenchSettings settings = bench::parse_settings(argc, argv);
  const sweep::GridSpec grid = bench::bench_grid(settings);
  const auto errors = bench::bench_errors(settings, 0.04);
  const std::size_t reps = bench::bench_reps(settings, 12);
  bench::print_banner(std::cout, "Figure 7: in-order (plain-UMR) phase 1 vs original RUMR",
                      settings, grid, errors.size(), reps);

  const std::vector<sweep::AlgorithmSpec> algorithms{sweep::algorithm("rumr"),
                                                     sweep::algorithm("rumr-inorder")};
  const sweep::SweepResult result = run_sweep(sweep::make_grid(grid), algorithms,
                                              bench::bench_sweep_options(settings, errors, reps));

  report::SeriesSet series =
      bench::normalized_series(result, "Figure 7: plain-UMR phase 1 vs original RUMR");
  bench::emit_figure(std::cout, series, "fig7.csv");

  std::cout << "normalized makespan of the in-order variant by error:\n";
  for (std::size_t e = 0; e < result.errors().size(); ++e) {
    std::cout << "  error " << result.errors()[e] << ": "
              << result.mean_normalized_makespan(e, 1) << '\n';
  }
  std::cout << "(paper: ~1.01 at high error, fractionally below 1 at very low error)\n";
  return 0;
}
