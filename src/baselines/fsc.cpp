#include "baselines/fsc.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace rumr::baselines {

double fsc_chunk_size(const platform::StarPlatform& platform, double w_total, double error) {
  const auto n = static_cast<double>(platform.size());
  const double one_round = w_total / n;
  if (!(error > 0.0)) return one_round;

  const double overhead = empty_round_overhead_work(platform);
  if (overhead <= 0.0) {
    // No per-chunk overhead: smaller is strictly better; bound by the same
    // internal floor factoring uses so the run stays finite.
    return std::max(1e-4 * w_total / n, 1e-6 * w_total);
  }
  const double sigma = error;  // Work-unit spread of one unit of work.
  const double log_n = std::log(std::max(n, 2.0));
  const double raw =
      std::pow(std::numbers::sqrt2 * w_total * overhead / (sigma * n * std::sqrt(log_n)),
               2.0 / 3.0);
  return std::clamp(raw, std::min(overhead, one_round), one_round);
}

FscPolicy::FscPolicy(const platform::StarPlatform& platform, double w_total, double error)
    : SelfSchedulingPolicy("FSC",
                           ChunkSequence::equal(w_total, fsc_chunk_size(platform, w_total, error)),
                           platform.size()) {}

std::unique_ptr<sim::SchedulerPolicy> make_fsc_policy(const platform::StarPlatform& platform,
                                                      double w_total, double error) {
  return std::make_unique<FscPolicy>(platform, w_total, error);
}

}  // namespace rumr::baselines
