#include "baselines/loop_scheduling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rumr::baselines {

ChunkSequence gss_sequence(double w_total, std::size_t num_workers, double min_chunk) {
  if (!(w_total > 0.0)) return {};
  if (num_workers == 0) throw std::invalid_argument("GSS needs >= 1 worker");
  const double floor_chunk = std::max(min_chunk, 1e-6 * w_total);
  return ChunkSequence::batched(w_total, static_cast<double>(num_workers), 1, floor_chunk);
}

std::vector<double> gss_chunks(double w_total, std::size_t num_workers, double min_chunk) {
  return gss_sequence(w_total, num_workers, min_chunk).drain();
}

ChunkSequence tss_sequence(double w_total, std::size_t num_workers, const TssOptions& options) {
  if (!(w_total > 0.0)) return {};
  if (num_workers == 0) throw std::invalid_argument("TSS needs >= 1 worker");
  if (!(options.last > 0.0)) throw std::invalid_argument("TSS last chunk must be positive");
  const auto n = static_cast<double>(num_workers);
  const double first =
      options.first > 0.0 ? options.first : std::max(options.last, w_total / (2.0 * n));
  const double last = std::min(options.last, first);

  // Tzen & Ni: with linear decay from f to l, the number of dispatches is
  // about ceil(2W / (f + l)); the per-dispatch decrement follows.
  const double count = std::max(1.0, std::ceil(2.0 * w_total / (first + last)));
  const double decrement = count > 1.0 ? (first - last) / (count - 1.0) : 0.0;
  return ChunkSequence::linear(w_total, first, decrement, last, 0.5 * last);
}

std::vector<double> tss_chunks(double w_total, std::size_t num_workers,
                               const TssOptions& options) {
  return tss_sequence(w_total, num_workers, options).drain();
}

std::vector<std::pair<std::size_t, double>> weighted_factoring_chunks(
    double w_total, const std::vector<double>& weights, const FactoringOptions& options) {
  if (!(w_total > 0.0)) return {};
  if (weights.empty()) throw std::invalid_argument("weighted factoring needs >= 1 weight");
  if (!(options.factor > 1.0)) throw std::invalid_argument("factoring factor must exceed 1");
  double weight_sum = 0.0;
  for (double w : weights) {
    if (!(w > 0.0)) throw std::invalid_argument("weights must be positive");
    weight_sum += w;
  }

  const double floor_chunk = std::max(options.min_chunk, 1e-6 * w_total);
  const double epsilon = 1e-12 * w_total;
  std::vector<std::pair<std::size_t, double>> plan;
  double remaining = w_total;
  while (remaining > epsilon) {
    const double batch = std::max(remaining / options.factor,
                                  floor_chunk * static_cast<double>(weights.size()));
    for (std::size_t i = 0; i < weights.size() && remaining > epsilon; ++i) {
      double take = std::min(batch * weights[i] / weight_sum, remaining);
      if (remaining - take < 0.5 * floor_chunk) take = remaining;
      if (take > 0.0) {
        plan.emplace_back(i, take);
        remaining -= take;
      }
    }
  }
  return plan;
}

GssPolicy::GssPolicy(double w_total, std::size_t num_workers, double min_chunk)
    : SelfSchedulingPolicy("GSS", gss_sequence(w_total, num_workers, min_chunk), num_workers) {}

TssPolicy::TssPolicy(double w_total, std::size_t num_workers, const TssOptions& options)
    : SelfSchedulingPolicy("TSS", tss_sequence(w_total, num_workers, options), num_workers) {}

namespace {

ChunkSequence css_sequence(double w_total, double chunk_size) {
  if (!(chunk_size > 0.0)) throw std::invalid_argument("CSS chunk size must be positive");
  return ChunkSequence::equal(w_total, chunk_size);
}

}  // namespace

CssPolicy::CssPolicy(double w_total, std::size_t num_workers, double chunk_size)
    : SelfSchedulingPolicy("CSS", css_sequence(w_total, chunk_size), num_workers) {}

WeightedFactoringPolicy::WeightedFactoringPolicy(const platform::StarPlatform& platform,
                                                 double w_total, const FactoringOptions& options) {
  std::vector<double> weights;
  weights.reserve(platform.size());
  for (const platform::WorkerSpec& w : platform.workers()) weights.push_back(w.speed);
  plan_ = weighted_factoring_chunks(w_total, weights, options);
  for (const auto& [worker, chunk] : plan_) total_work_ += chunk;
}

WeightedFactoringPolicy::WeightedFactoringPolicy(double w_total,
                                                 std::vector<std::size_t> workers,
                                                 const std::vector<double>& weights,
                                                 const FactoringOptions& options) {
  if (workers.size() != weights.size()) {
    throw std::invalid_argument("weighted factoring: workers/weights size mismatch");
  }
  plan_ = weighted_factoring_chunks(w_total, weights, options);
  // Map weight positions back to platform worker indices.
  for (auto& [position, chunk] : plan_) position = workers[position];
  for (const auto& [worker, chunk] : plan_) total_work_ += chunk;
}

std::optional<sim::Dispatch> WeightedFactoringPolicy::next_dispatch(
    const sim::MasterContext& ctx) {
  if (cursor_ >= plan_.size()) return std::nullopt;
  // Each chunk is pre-assigned to a worker (its size was computed from that
  // worker's weight); dispatch it only when its worker is idle, but allow
  // later chunks of the same batch to overtake blocked ones so one slow
  // worker does not stall the batch.
  for (std::size_t probe = cursor_; probe < plan_.size(); ++probe) {
    const auto [worker, chunk] = plan_[probe];
    const sim::WorkerStatus& st = ctx.worker_status(worker);
    if (st.alive && st.outstanding == 0) {
      // Swap the served chunk to the cursor to keep the plan compact.
      std::swap(plan_[cursor_], plan_[probe]);
      ++cursor_;
      return sim::Dispatch{worker, chunk};
    }
  }
  // Fault fallback: every remaining chunk is pinned to a fenced or busy
  // worker. Redirect the head chunk to an idle alive worker so a dead
  // worker's share is redistributed instead of stranding the plan.
  for (std::size_t probe = cursor_; probe < plan_.size(); ++probe) {
    if (ctx.worker_status(plan_[probe].first).alive) continue;
    std::size_t fallback = ctx.num_workers();
    for (std::size_t w = 0; w < ctx.num_workers(); ++w) {
      const sim::WorkerStatus& st = ctx.worker_status(w);
      if (!st.alive || st.outstanding != 0) continue;
      if (fallback == ctx.num_workers() ||
          st.predicted_ready < ctx.worker_status(fallback).predicted_ready) {
        fallback = w;
      }
    }
    if (fallback == ctx.num_workers()) break;  // Nobody idle yet: wait.
    std::swap(plan_[cursor_], plan_[probe]);
    const double chunk = plan_[cursor_].second;
    ++cursor_;
    return sim::Dispatch{fallback, chunk};
  }
  return std::nullopt;
}

namespace {

FactoringOptions overhead_floor_options(const platform::StarPlatform& platform) {
  FactoringOptions options;
  options.min_chunk = empty_round_overhead_work(platform);
  return options;
}

}  // namespace

std::unique_ptr<sim::SchedulerPolicy> make_gss_policy(const platform::StarPlatform& platform,
                                                      double w_total) {
  return std::make_unique<GssPolicy>(w_total, platform.size(),
                                     empty_round_overhead_work(platform));
}

std::unique_ptr<sim::SchedulerPolicy> make_tss_policy(const platform::StarPlatform& platform,
                                                      double w_total) {
  TssOptions options;
  options.last = std::max(1.0, empty_round_overhead_work(platform));
  return std::make_unique<TssPolicy>(w_total, platform.size(), options);
}

std::unique_ptr<sim::SchedulerPolicy> make_weighted_factoring_policy(
    const platform::StarPlatform& platform, double w_total) {
  return std::make_unique<WeightedFactoringPolicy>(platform, w_total,
                                                   overhead_floor_options(platform));
}

}  // namespace rumr::baselines
