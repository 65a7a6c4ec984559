#pragma once

/// \file factoring.hpp
/// Factoring self-scheduling (Flynn Hummel, CACM 35(8), 1992) — the
/// robustness-oriented competitor in the RUMR paper, and RUMR's phase 2.
///
/// Factoring allocates work in *batches*: each batch hands every one of the
/// N workers an equal chunk sized `remaining / (f * N)` (factor f, classically
/// 2, i.e. each batch schedules half the remaining work). Chunk sizes thus
/// decrease geometrically, which bounds the absolute impact of prediction
/// errors on the final chunks. Dispatch is greedy self-scheduling: a worker
/// gets its next chunk only when it has none outstanding — so factoring makes
/// no use of predictions at all, but also achieves little communication/
/// computation overlap (the paper's argument for combining it with UMR).
///
/// For continuous (divisible) workloads a lower bound on chunk size is
/// required to terminate; RUMR section 4.2 (design choice iii) bounds chunks
/// below by (cLat + nLat*N)/error when the error magnitude is known and by
/// (cLat + nLat*N) otherwise (following Hagerup 1997).

#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::baselines {

/// Overhead, in seconds, of sending one round of empty chunks: the
/// non-hidden latencies to send N messages plus starting the computation for
/// the last processor (paper section 4.2). Uses mean latencies on
/// heterogeneous platforms.
[[nodiscard]] double empty_round_overhead_seconds(const platform::StarPlatform& platform);

/// `empty_round_overhead_seconds` converted to workload units via the mean
/// worker speed, so it is commensurable with chunk sizes.
[[nodiscard]] double empty_round_overhead_work(const platform::StarPlatform& platform);

/// A self-scheduling chunk-size sequence, generated one chunk at a time from
/// the work that remains rather than materialised up front. Every rule of the
/// family takes the same step,
///
///     take = min(max(size, floor), remaining)
///     if (remaining - take < dust) take = remaining    // absorb the dust
///
/// and stops once remaining <= 1e-12 * W. The rules differ only in `size`:
///   - batched: remaining / divisor, taken at the start of each batch of
///     `batch` chunks (Factoring: divisor f*N, batch N; GSS: divisor N,
///     batch 1);
///   - linear: `first`, falling by `decrement` after every chunk (TSS; FSC
///     and CSS are the equal-size case, decrement 0).
class ChunkSequence {
 public:
  /// The empty sequence.
  ChunkSequence() = default;

  /// Equal chunks of `chunk` units; the last one absorbs a remainder below
  /// 1e-9 * W. Shared by FSC and CSS.
  [[nodiscard]] static ChunkSequence equal(double w_total, double chunk);
  /// Batched decreasing chunks (Factoring, GSS). `floor` also sets the dust
  /// threshold, floor / 2.
  [[nodiscard]] static ChunkSequence batched(double w_total, double divisor, std::size_t batch,
                                             double floor);
  /// Linearly decreasing chunks (TSS).
  [[nodiscard]] static ChunkSequence linear(double w_total, double first, double decrement,
                                            double floor, double dust);

  [[nodiscard]] bool done() const noexcept { return !(remaining_ > epsilon_); }
  /// The next chunk size (> 0). Precondition: !done().
  double next() noexcept;
  /// The requested workload W (0 for W <= 0). The generated chunks sum to it
  /// within 1e-12 * W plus rounding.
  [[nodiscard]] double total_work() const noexcept { return w_total_; }
  /// The chunks still to come, generated from a copy (for inspection and
  /// tests; the sequence itself does not advance).
  [[nodiscard]] std::vector<double> drain() const;

 private:
  ChunkSequence(double w_total, double size, double floor, double dust);

  double w_total_ = 0.0;
  double remaining_ = 0.0;
  double epsilon_ = 0.0;
  double size_ = 0.0;
  double floor_ = 0.0;
  double dust_ = 0.0;
  double decrement_ = 0.0;  ///< Linear rules.
  double divisor_ = 0.0;    ///< Batched rules.
  std::size_t batch_ = 0;   ///< Batched rules: chunks per batch (0 = linear).
  std::size_t step_ = 0;    ///< Batched rules: position within the batch.
};

/// Base for policies that feed a generated chunk sequence greedily to idle
/// workers (pure self-scheduling: a worker is fed only when it has no
/// outstanding chunk).
class SelfSchedulingPolicy : public sim::SchedulerPolicy {
 public:
  /// Feeds chunks to workers 0..num_workers-1.
  SelfSchedulingPolicy(std::string name, ChunkSequence chunks, std::size_t num_workers);

  /// Feeds chunks to an explicit worker subset (platform indices). Among
  /// equally long-idle workers the earliest subset position wins. Used by
  /// RUMR so phase 2 stays on the workers phase 1 selected.
  SelfSchedulingPolicy(std::string name, ChunkSequence chunks, std::vector<std::size_t> workers);

  [[nodiscard]] std::string_view name() const override { return name_; }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override;
  [[nodiscard]] bool finished() const override { return chunks_.done(); }
  [[nodiscard]] double total_work() const override { return chunks_.total_work(); }

  /// The chunk sizes still to be dispatched, for inspection/testing.
  [[nodiscard]] std::vector<double> chunk_sequence() const { return chunks_.drain(); }

 private:
  static constexpr std::size_t kNotInSubset = static_cast<std::size_t>(-1);

  std::string name_;
  ChunkSequence chunks_;
  std::vector<std::size_t> workers_;
  /// position_[w]: the first subset position of platform worker w, or
  /// kNotInSubset.
  std::vector<std::size_t> position_;
};

/// Options for the factoring chunk-size sequence.
struct FactoringOptions {
  double factor = 2.0;     ///< f: each batch schedules 1/f of the remaining work.
  double min_chunk = 0.0;  ///< Lower bound on chunk size (workload units).
};

/// The factoring chunk-size sequence for `w_total` units over `num_workers`
/// workers: batches of N chunks of max(remaining / (f * N), floor), with the
/// floor at least 1e-6 * W.
[[nodiscard]] ChunkSequence factoring_sequence(double w_total, std::size_t num_workers,
                                               const FactoringOptions& options = {});

/// factoring_sequence drained into a vector. Sums exactly to w_total.
[[nodiscard]] std::vector<double> factoring_chunks(double w_total, std::size_t num_workers,
                                                   const FactoringOptions& options = {});

/// The Factoring policy: generated decreasing chunks, greedy dispatch.
class FactoringPolicy : public SelfSchedulingPolicy {
 public:
  FactoringPolicy(double w_total, std::size_t num_workers, const FactoringOptions& options = {});
  /// Restricted to an explicit worker subset (platform indices).
  FactoringPolicy(double w_total, std::vector<std::size_t> workers,
                  const FactoringOptions& options = {});
};

/// Factoring configured as the paper's standalone competitor on a given
/// platform: unknown error, so the chunk floor is (cLat + nLat*N) converted
/// to work units.
[[nodiscard]] std::unique_ptr<sim::SchedulerPolicy> make_factoring_policy(
    const platform::StarPlatform& platform, double w_total);

}  // namespace rumr::baselines
