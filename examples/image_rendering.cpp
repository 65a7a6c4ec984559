// Image rendering / feature extraction: the paper's introductory motivating
// workload. A large image is cut into segments, each segment is shipped to a
// worker and processed there; the per-segment processing time is strongly
// data dependent (a ray through an empty sky costs nothing, one through a
// glass sphere is expensive) — exactly the application-side source of
// prediction error the paper describes for ray tracing.
//
// This example treats the image as a divisible workload (one unit = one
// 64x64 pixel block), sweeps the prediction-error level with the rumr::Sweep
// builder, and races the full competitor line-up from the paper's section
// 5.1. The sweep is sharded across all cores and every repetition is
// self-audited.

#include <cstdio>
#include <vector>

#include "api/rumr.hpp"

int main() {
  using namespace rumr;

  // An 8K frame (7680 x 4320) in 64x64 blocks: 120 * 67.5 -> 8100 blocks.
  const double blocks = 8100.0;
  // Rendering cluster: 16 nodes, each renders 4 blocks/s; master pushes
  // compressed scene tiles at 96 blocks/s over a LAN with realistic setup
  // costs.
  platform::StarPlatform cluster = platform::StarPlatform::homogeneous({
      .workers = 16,
      .speed = 4.0,
      .bandwidth = 96.0,
      .comp_latency = 0.15,   // renderer warm-up per segment
      .comm_latency = 0.05,   // TCP connection + request setup
      .transfer_latency = 0.01,
  });

  std::printf("scene        : 8K frame, %.0f blocks of 64x64 pixels\n", blocks);
  std::printf("render farm  : %s\n\n", cluster.describe().c_str());

  const std::vector<double> error_levels = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  const std::vector<sweep::AlgorithmSpec> algorithms = sweep::paper_competitors();
  const std::size_t reps = 25;

  Sweep study(sweep::SweepOptions{
      .errors = error_levels, .repetitions = reps, .w_total = blocks, .base_seed = 0xf00d});
  study.platform(cluster, "render-farm-16").policies() = algorithms;
  const std::vector<sweep::SweepCell> cells = study.execute();

  // cells arrive sorted by (platform, error, algorithm); with one platform,
  // cell index = error * |algorithms| + algorithm.
  const auto mean_at = [&](std::size_t algo, std::size_t err) {
    return cells[err * algorithms.size() + algo].stats.makespan.mean();
  };

  std::vector<std::string> headers = {"algorithm"};
  for (double e : error_levels) headers.push_back("err=" + report::format_double(e, 1));
  report::TextTable table(std::move(headers));
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    std::vector<double> row(error_levels.size());
    for (std::size_t e = 0; e < error_levels.size(); ++e) row[e] = mean_at(a, e);
    table.add_row(algorithms[a].name, row, 1);
  }
  std::printf("mean frame render time (s) over %zu repetitions:\n\n%s\n", reps,
              table.to_string().c_str());

  // Normalized view (the paper's preferred presentation).
  std::vector<std::string> norm_headers = {"vs RUMR"};
  for (double e : error_levels) norm_headers.push_back("err=" + report::format_double(e, 1));
  report::TextTable normalized(std::move(norm_headers));
  for (std::size_t a = 1; a < algorithms.size(); ++a) {
    std::vector<double> row(error_levels.size());
    for (std::size_t e = 0; e < error_levels.size(); ++e) {
      row[e] = mean_at(a, e) / mean_at(0, e);
    }
    normalized.add_row(algorithms[a].name, row, 3);
  }
  std::printf("makespan normalized to RUMR (>1 means RUMR is faster):\n\n%s",
              normalized.to_string().c_str());

  // The sketch gives distribution tails without storing the repetitions.
  const sweep::CellStats& rumr_worst =
      cells[(error_levels.size() - 1) * algorithms.size()].stats;
  std::printf("\nRUMR at err=%.1f: median %.1f s, p95 %.1f s over %zu reps\n",
              error_levels.back(), rumr_worst.makespan_quantiles.quantile(0.5),
              rumr_worst.makespan_quantiles.quantile(0.95), rumr_worst.reps);
  return 0;
}
