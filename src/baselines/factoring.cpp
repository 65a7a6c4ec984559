#include "baselines/factoring.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace rumr::baselines {

double empty_round_overhead_seconds(const platform::StarPlatform& platform) {
  const auto n = static_cast<double>(platform.size());
  double mean_clat = 0.0;
  double mean_nlat = 0.0;
  for (const platform::WorkerSpec& w : platform.workers()) {
    mean_clat += w.comp_latency;
    mean_nlat += w.comm_latency;
  }
  mean_clat /= n;
  mean_nlat /= n;
  return mean_clat + mean_nlat * n;
}

double empty_round_overhead_work(const platform::StarPlatform& platform) {
  const double mean_speed = platform.total_speed() / static_cast<double>(platform.size());
  return empty_round_overhead_seconds(platform) * mean_speed;
}

ChunkSequence::ChunkSequence(double w_total, double size, double floor, double dust)
    : w_total_(w_total),
      remaining_(w_total),
      epsilon_(1e-12 * w_total),
      size_(size),
      floor_(floor),
      dust_(dust) {}

ChunkSequence ChunkSequence::equal(double w_total, double chunk) {
  return linear(w_total, chunk, 0.0, chunk, 1e-9 * w_total);
}

ChunkSequence ChunkSequence::batched(double w_total, double divisor, std::size_t batch,
                                     double floor) {
  if (!(w_total > 0.0)) return {};
  ChunkSequence sequence(w_total, 0.0, floor, 0.5 * floor);
  sequence.divisor_ = divisor;
  sequence.batch_ = batch;
  return sequence;
}

ChunkSequence ChunkSequence::linear(double w_total, double first, double decrement, double floor,
                                    double dust) {
  if (!(w_total > 0.0)) return {};
  ChunkSequence sequence(w_total, first, floor, dust);
  sequence.decrement_ = decrement;
  return sequence;
}

double ChunkSequence::next() noexcept {
  if (batch_ > 0) {
    if (step_ == 0) size_ = remaining_ / divisor_;
    step_ = (step_ + 1) % batch_;
  }
  double take = std::min(std::max(size_, floor_), remaining_);
  if (remaining_ - take < dust_) take = remaining_;
  remaining_ -= take;
  size_ -= decrement_;
  return take;
}

std::vector<double> ChunkSequence::drain() const {
  ChunkSequence rest = *this;
  std::vector<double> chunks;
  while (!rest.done()) chunks.push_back(rest.next());
  return chunks;
}

namespace {

std::vector<std::size_t> iota_workers(std::size_t n) {
  std::vector<std::size_t> workers(n);
  for (std::size_t i = 0; i < n; ++i) workers[i] = i;
  return workers;
}

}  // namespace

SelfSchedulingPolicy::SelfSchedulingPolicy(std::string name, ChunkSequence chunks,
                                           std::size_t num_workers)
    : SelfSchedulingPolicy(std::move(name), chunks, iota_workers(num_workers)) {}

SelfSchedulingPolicy::SelfSchedulingPolicy(std::string name, ChunkSequence chunks,
                                           std::vector<std::size_t> workers)
    : name_(std::move(name)), chunks_(chunks), workers_(std::move(workers)) {
  if (workers_.empty()) throw std::invalid_argument("self-scheduling needs >= 1 worker");
  position_.assign(*std::max_element(workers_.begin(), workers_.end()) + 1, kNotInSubset);
  for (std::size_t k = workers_.size(); k-- > 0;) position_[workers_[k]] = k;
}

std::optional<sim::Dispatch> SelfSchedulingPolicy::next_dispatch(const sim::MasterContext& ctx) {
  if (chunks_.done()) return std::nullopt;

  // Pure request-driven self-scheduling: feed only alive workers with no
  // outstanding chunk, preferring the one idle the longest (earliest
  // completion; earliest subset position among equals), matching a FIFO
  // request queue. The engine lists idle workers by (last_completion,
  // index), so the first subset member fixes the completion time and only
  // its ties remain to compare.
  std::size_t best = kNotInSubset;
  des::SimTime best_completion = 0.0;
  for (const std::size_t w : ctx.idle_workers()) {
    const std::size_t k = w < position_.size() ? position_[w] : kNotInSubset;
    if (k == kNotInSubset) continue;
    const des::SimTime completion = ctx.worker_status(w).last_completion;
    if (best == kNotInSubset) {
      best = k;
      best_completion = completion;
    } else if (completion > best_completion) {
      break;
    } else {
      best = std::min(best, k);
    }
  }
  if (best != kNotInSubset) return sim::Dispatch{workers_[best], chunks_.next()};
  for (const std::size_t w : workers_) {
    if (ctx.worker_status(w).alive) return std::nullopt;  // Everyone loaded: wait.
  }

  // Fault fallback: the whole subset is fenced. Rather than strand the
  // remaining chunks, feed the soonest-ready alive worker anywhere on the
  // platform (RUMR phase 2 thereby escapes a dead phase-1 selection).
  std::size_t fallback = ctx.num_workers();
  for (std::size_t w = 0; w < ctx.num_workers(); ++w) {
    const sim::WorkerStatus& st = ctx.worker_status(w);
    if (!st.alive) continue;
    if (fallback == ctx.num_workers() ||
        st.predicted_ready < ctx.worker_status(fallback).predicted_ready) {
      fallback = w;
    }
  }
  if (fallback == ctx.num_workers()) return std::nullopt;  // All dead: wait/strand.
  return sim::Dispatch{fallback, chunks_.next()};
}

ChunkSequence factoring_sequence(double w_total, std::size_t num_workers,
                                 const FactoringOptions& options) {
  if (!(w_total > 0.0)) return {};
  if (num_workers == 0) throw std::invalid_argument("factoring needs >= 1 worker");
  if (!(options.factor > 1.0)) throw std::invalid_argument("factoring factor must exceed 1");
  // A strictly positive floor is needed for termination on continuous loads;
  // 1e-6 of the workload is far below any overhead-relevant size.
  const double floor_chunk = std::max(options.min_chunk, 1e-6 * w_total);
  return ChunkSequence::batched(w_total, options.factor * static_cast<double>(num_workers),
                                num_workers, floor_chunk);
}

std::vector<double> factoring_chunks(double w_total, std::size_t num_workers,
                                     const FactoringOptions& options) {
  return factoring_sequence(w_total, num_workers, options).drain();
}

FactoringPolicy::FactoringPolicy(double w_total, std::size_t num_workers,
                                 const FactoringOptions& options)
    : SelfSchedulingPolicy("Factoring", factoring_sequence(w_total, num_workers, options),
                           num_workers) {}

FactoringPolicy::FactoringPolicy(double w_total, std::vector<std::size_t> workers,
                                 const FactoringOptions& options)
    // Note: `workers` is passed by value (not moved) because the first
    // argument reads workers.size() and evaluation order is unspecified.
    : SelfSchedulingPolicy("Factoring", factoring_sequence(w_total, workers.size(), options),
                           workers) {}

std::unique_ptr<sim::SchedulerPolicy> make_factoring_policy(
    const platform::StarPlatform& platform, double w_total) {
  FactoringOptions options;
  options.min_chunk = empty_round_overhead_work(platform);
  return std::make_unique<FactoringPolicy>(w_total, platform.size(), options);
}

}  // namespace rumr::baselines
