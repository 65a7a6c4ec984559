// Tests for the self-scheduling core (baselines/factoring.hpp):
//   - every generated chunk sequence against the materialising loop it
//     replaced, bit for bit, over a grid of workloads, worker counts, floors
//     and chunk sizes;
//   - the greedy idle choice of SelfSchedulingPolicy::next_dispatch against
//     the O(N) worker scan it replaced, on seeded random master states;
//   - the engine's idle index (MasterContext::idle_workers) against the
//     worker statuses it summarises, inside faulty runs where fences,
//     rejoins and re-dispatches change them behind the policy's back.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factoring.hpp"
#include "baselines/fsc.hpp"
#include "baselines/loop_scheduling.hpp"
#include "check/trace_audit.hpp"
#include "sim/master_worker.hpp"
#include "stats/rng.hpp"

namespace rumr::baselines {
namespace {

// --- Oracles: the materialising loops the generators replaced ----------------
//
// Each is the pre-generator loop, unchanged except that it counts how often
// the dust-absorb branch fired, so the grid can show it was exercised.

std::vector<double> oracle_equal_chunks(double w_total, double chunk, int& absorbed) {
  std::vector<double> chunks;
  double remaining = w_total;
  const double epsilon = 1e-12 * w_total;
  while (remaining > epsilon) {
    double take = std::min(chunk, remaining);
    if (remaining - take < 1e-9 * w_total) {
      absorbed += take != remaining ? 1 : 0;
      take = remaining;
    }
    chunks.push_back(take);
    remaining -= take;
  }
  return chunks;
}

std::vector<double> oracle_css_chunks(double w_total, double chunk_size, int& absorbed) {
  std::vector<double> chunks;
  double remaining = w_total;
  const double epsilon = 1e-12 * w_total;
  while (remaining > epsilon) {
    double take = std::min(chunk_size, remaining);
    if (remaining - take < 1e-9 * w_total) {
      absorbed += take != remaining ? 1 : 0;
      take = remaining;
    }
    chunks.push_back(take);
    remaining -= take;
  }
  return chunks;
}

std::vector<double> oracle_factoring_chunks(double w_total, std::size_t num_workers,
                                            const FactoringOptions& options, int& absorbed) {
  if (!(w_total > 0.0)) return {};
  const auto n = static_cast<double>(num_workers);
  const double floor_chunk = std::max(options.min_chunk, 1e-6 * w_total);
  const double epsilon = 1e-12 * w_total;

  std::vector<double> chunks;
  double remaining = w_total;
  while (remaining > epsilon) {
    const double batch_chunk = std::max(remaining / (options.factor * n), floor_chunk);
    for (std::size_t i = 0; i < num_workers && remaining > epsilon; ++i) {
      double take = std::min(batch_chunk, remaining);
      if (remaining - take < 0.5 * floor_chunk) {
        absorbed += take != remaining ? 1 : 0;
        take = remaining;
      }
      chunks.push_back(take);
      remaining -= take;
    }
  }
  return chunks;
}

std::vector<double> oracle_gss_chunks(double w_total, std::size_t num_workers, double min_chunk,
                                      int& absorbed) {
  if (!(w_total > 0.0)) return {};
  const auto n = static_cast<double>(num_workers);
  const double floor_chunk = std::max(min_chunk, 1e-6 * w_total);
  const double epsilon = 1e-12 * w_total;

  std::vector<double> chunks;
  double remaining = w_total;
  while (remaining > epsilon) {
    double take = std::max(remaining / n, floor_chunk);
    take = std::min(take, remaining);
    if (remaining - take < 0.5 * floor_chunk) {
      absorbed += take != remaining ? 1 : 0;
      take = remaining;
    }
    chunks.push_back(take);
    remaining -= take;
  }
  return chunks;
}

std::vector<double> oracle_tss_chunks(double w_total, std::size_t num_workers,
                                      const TssOptions& options, int& absorbed) {
  if (!(w_total > 0.0)) return {};
  const auto n = static_cast<double>(num_workers);
  const double first =
      options.first > 0.0 ? options.first : std::max(options.last, w_total / (2.0 * n));
  const double last = std::min(options.last, first);
  const double count = std::max(1.0, std::ceil(2.0 * w_total / (first + last)));
  const double decrement = count > 1.0 ? (first - last) / (count - 1.0) : 0.0;

  std::vector<double> chunks;
  double remaining = w_total;
  double size = first;
  const double epsilon = 1e-12 * w_total;
  while (remaining > epsilon) {
    double take = std::min(std::max(size, last), remaining);
    if (remaining - take < 0.5 * last) {
      absorbed += take != remaining ? 1 : 0;
      take = remaining;
    }
    chunks.push_back(take);
    remaining -= take;
    size -= decrement;
  }
  return chunks;
}

/// Exact equality of every double, compared as bit patterns.
void expect_same_bits(const std::vector<double>& want, const std::vector<double>& got,
                      const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(want[i]) != std::bit_cast<std::uint64_t>(got[i])) {
      ADD_FAILURE() << label << ": chunk " << i << " is " << got[i] << ", want " << want[i];
      return;
    }
  }
}

std::string label_of(const char* rule, double w, std::size_t n, double x) {
  std::ostringstream out;
  out.precision(17);
  out << rule << " W=" << w << " N=" << n << " param=" << x;
  return out.str();
}

const std::vector<double> kWorkloads = {0.0, 1e-3, 1.0, 100.0, 1000.0, 12345.6, 1e6};
const std::vector<std::size_t> kWorkerCounts = {1, 2, 3, 7, 10, 50};
const std::vector<double> kFloors = {0.0, 0.5, 5.5, 20.0, 1e4};

/// Chunk sizes for the equal-size rule at workload w: small, unit, odd,
/// a third of W minus 1e-11 W (the last chunk lands inside the 1e-9 W dust
/// band and absorbs it), exactly W, and past W.
std::vector<double> equal_sizes(double w) {
  std::vector<double> sizes = {0.37, 1.0, 30.0, 99.999999999};
  if (w > 0.0) {
    sizes.push_back(w * (1.0 - 1e-11) / 3.0);
    sizes.push_back(w);
    sizes.push_back(2.0 * w);
  }
  // Keep every case under 2e5 chunks.
  std::erase_if(sizes, [w](double c) { return w / c > 2e5; });
  return sizes;
}

TEST(ChunkRules, EqualSizeRuleMatchesTheFscAndCssLoops) {
  int absorbed_equal = 0;
  int absorbed_css = 0;
  for (const double w : kWorkloads) {
    for (const double c : equal_sizes(w)) {
      const std::string label = label_of("equal", w, 0, c);
      const ChunkSequence sequence = ChunkSequence::equal(w, c);
      expect_same_bits(oracle_equal_chunks(w, c, absorbed_equal), sequence.drain(), label);
      for (const std::size_t n : {1u, 4u}) {
        const CssPolicy css(w, n, c);
        expect_same_bits(oracle_css_chunks(w, c, absorbed_css), css.chunk_sequence(), label);
        EXPECT_EQ(css.total_work(), w > 0.0 ? w : 0.0) << label;
      }
    }
  }
  EXPECT_GT(absorbed_equal, 0);
  EXPECT_GT(absorbed_css, 0);
}

TEST(ChunkRules, FscPolicyMatchesTheEqualChunksLoop) {
  int absorbed = 0;
  for (const double latency : {0.0, 0.05}) {
    for (const std::size_t n : {1u, 10u, 50u}) {
      const platform::StarPlatform p = platform::StarPlatform::homogeneous(
          {.workers = n, .speed = 1.0, .bandwidth = 15.0, .comp_latency = latency,
           .comm_latency = latency});
      for (const double w : {0.0, 1.0, 1000.0}) {
        for (const double error : {0.0, 0.1, 0.3}) {
          const FscPolicy fsc(p, w, error);
          expect_same_bits(oracle_equal_chunks(w, fsc_chunk_size(p, w, error), absorbed),
                           fsc.chunk_sequence(), label_of("FSC", w, n, error));
          EXPECT_EQ(fsc.total_work(), w);
        }
      }
    }
  }
}

TEST(ChunkRules, FactoringRuleMatchesTheFactoringLoop) {
  int absorbed = 0;
  for (const double w : kWorkloads) {
    for (const std::size_t n : kWorkerCounts) {
      for (const double floor : kFloors) {
        for (const double factor : {2.0, 3.0, 1.5}) {
          const FactoringOptions options{.factor = factor, .min_chunk = floor};
          const std::string label = label_of("Factoring", w, n, floor);
          const std::vector<double> want = oracle_factoring_chunks(w, n, options, absorbed);
          expect_same_bits(want, factoring_chunks(w, n, options), label);
          const FactoringPolicy policy(w, n, options);
          expect_same_bits(want, policy.chunk_sequence(), label);
          EXPECT_EQ(policy.total_work(), w > 0.0 ? w : 0.0) << label;
        }
      }
    }
  }
  EXPECT_GT(absorbed, 0);
}

TEST(ChunkRules, GuidedRuleMatchesTheGssLoop) {
  int absorbed = 0;
  for (const double w : kWorkloads) {
    for (const std::size_t n : kWorkerCounts) {
      for (const double floor : kFloors) {
        const std::string label = label_of("GSS", w, n, floor);
        const std::vector<double> want = oracle_gss_chunks(w, n, floor, absorbed);
        expect_same_bits(want, gss_chunks(w, n, floor), label);
        expect_same_bits(want, GssPolicy(w, n, floor).chunk_sequence(), label);
      }
    }
  }
  EXPECT_GT(absorbed, 0);
}

TEST(ChunkRules, TrapezoidRuleMatchesTheTssLoop) {
  int absorbed = 0;
  for (const double w : kWorkloads) {
    for (const std::size_t n : kWorkerCounts) {
      for (const double first : {0.0, 50.0}) {
        for (const double last : {0.5, 1.0, 7.0}) {
          const TssOptions options{.first = first, .last = last};
          const std::string label = label_of("TSS", w, n, last);
          const std::vector<double> want = oracle_tss_chunks(w, n, options, absorbed);
          expect_same_bits(want, tss_chunks(w, n, options), label);
          expect_same_bits(want, TssPolicy(w, n, options).chunk_sequence(), label);
        }
      }
    }
  }
  EXPECT_GT(absorbed, 0);
}

TEST(ChunkRules, GeneratedChunksSumToTheRequestedWorkload) {
  for (const double w : {1.0, 1000.0, 12345.6}) {
    for (const ChunkSequence& sequence :
         {ChunkSequence::equal(w, 0.7), factoring_sequence(w, 7), gss_sequence(w, 7),
          tss_sequence(w, 7)}) {
      EXPECT_EQ(sequence.total_work(), w);
      double sum = 0.0;
      for (const double c : sequence.drain()) {
        EXPECT_GT(c, 0.0);
        sum += c;
      }
      EXPECT_NEAR(sum, w, 1e-9 * w);
    }
  }
}

TEST(ChunkRules, InspectionDoesNotAdvanceThePolicy) {
  FactoringPolicy policy(1000.0, 4);
  const std::vector<double> before = policy.chunk_sequence();
  EXPECT_EQ(policy.chunk_sequence(), before);
  EXPECT_FALSE(policy.finished());
}

// --- The idle choice ----------------------------------------------------------

/// The O(N) pick SelfSchedulingPolicy::next_dispatch made before the engine
/// kept an idle index: scan the subset for the alive worker with no
/// outstanding chunk and the earliest last_completion (strict <, so the
/// earliest subset position wins ties); with the whole subset dead, fall back
/// to the alive platform worker with the earliest predicted_ready.
std::optional<std::size_t> oracle_pick(const sim::MasterContext& ctx,
                                       const std::vector<std::size_t>& workers) {
  std::size_t best = workers.size();
  double best_completion = 0.0;
  bool any_alive_in_subset = false;
  for (std::size_t k = 0; k < workers.size(); ++k) {
    const sim::WorkerStatus& st = ctx.worker_status(workers[k]);
    if (!st.alive) continue;
    any_alive_in_subset = true;
    if (st.outstanding > 0) continue;
    if (best == workers.size() || st.last_completion < best_completion) {
      best = k;
      best_completion = st.last_completion;
    }
  }
  if (best < workers.size()) return workers[best];
  if (any_alive_in_subset) return std::nullopt;

  std::size_t fallback = ctx.num_workers();
  for (std::size_t w = 0; w < ctx.num_workers(); ++w) {
    const sim::WorkerStatus& st = ctx.worker_status(w);
    if (!st.alive) continue;
    if (fallback == ctx.num_workers() ||
        st.predicted_ready < ctx.worker_status(fallback).predicted_ready) {
      fallback = w;
    }
  }
  if (fallback == ctx.num_workers()) return std::nullopt;
  return fallback;
}

/// The idle_workers() contract computed from scratch: alive workers with no
/// outstanding chunk, sorted by (last_completion, index).
std::vector<std::size_t> oracle_idle(const sim::MasterContext& ctx) {
  std::vector<std::size_t> idle;
  for (std::size_t w = 0; w < ctx.num_workers(); ++w) {
    const sim::WorkerStatus& st = ctx.worker_status(w);
    if (st.alive && st.outstanding == 0) idle.push_back(w);
  }
  std::sort(idle.begin(), idle.end(), [&ctx](std::size_t a, std::size_t b) {
    return std::pair(ctx.worker_status(a).last_completion, a) <
           std::pair(ctx.worker_status(b).last_completion, b);
  });
  return idle;
}

/// A master state set by hand; idle_workers() follows the contract.
class StateContext final : public sim::MasterContext {
 public:
  explicit StateContext(std::size_t n)
      : platform_(platform::StarPlatform::homogeneous({.workers = n})), status_(n) {}

  [[nodiscard]] des::SimTime now() const override { return 0.0; }
  [[nodiscard]] const platform::StarPlatform& platform() const override { return platform_; }
  [[nodiscard]] std::size_t num_workers() const override { return status_.size(); }
  [[nodiscard]] const sim::WorkerStatus& worker_status(std::size_t i) const override {
    return status_.at(i);
  }
  [[nodiscard]] bool can_receive(std::size_t) const override { return true; }
  [[nodiscard]] std::span<const std::size_t> idle_workers() const override {
    idle_ = oracle_idle(*this);
    return idle_;
  }

  std::vector<sim::WorkerStatus>& status() { return status_; }

 private:
  platform::StarPlatform platform_;
  std::vector<sim::WorkerStatus> status_;
  mutable std::vector<std::size_t> idle_;
};

TEST(IdleChoice, MatchesTheWorkerScanOnRandomStates) {
  stats::Rng rng(20261020);
  const double shared_times[] = {0.0, 1.25, 2.5, 4.0};
  int dispatched = 0;
  int waited = 0;
  int fallbacks = 0;
  int tie_breaks = 0;  // The winner is not the lowest platform index among the tied.
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(12);
    StateContext ctx(n);
    // Completion times come from a few shared values so ties are common.
    const std::size_t distinct_times = 1 + rng.uniform_index(4);
    for (sim::WorkerStatus& st : ctx.status()) {
      st.alive = rng.uniform01() < 0.75;
      st.outstanding = rng.uniform_index(3);
      st.last_completion = shared_times[rng.uniform_index(distinct_times)];
      st.predicted_ready = shared_times[rng.uniform_index(4)] + rng.uniform01();
    }
    // A random subset in random order: gapped and non-ascending.
    std::vector<std::size_t> subset(n);
    for (std::size_t w = 0; w < n; ++w) subset[w] = w;
    for (std::size_t i = n; i > 1; --i) std::swap(subset[i - 1], subset[rng.uniform_index(i)]);
    subset.resize(1 + rng.uniform_index(n));
    if (rng.uniform_index(6) == 0) {
      for (const std::size_t w : subset) ctx.status()[w].alive = false;  // Fallback path.
    }

    const std::optional<std::size_t> want = oracle_pick(ctx, subset);
    SelfSchedulingPolicy policy("x", ChunkSequence::equal(1e6, 1.0), subset);
    const std::optional<sim::Dispatch> got = policy.next_dispatch(ctx);
    ASSERT_EQ(want.has_value(), got.has_value()) << "trial " << trial;
    if (!got) {
      ++waited;
      continue;
    }
    ASSERT_EQ(*want, got->worker) << "trial " << trial;
    EXPECT_EQ(got->chunk, 1.0);
    ++dispatched;
    const bool in_subset = std::find(subset.begin(), subset.end(), *want) != subset.end();
    if (!in_subset) {
      ++fallbacks;
      continue;
    }
    for (const std::size_t w : oracle_idle(ctx)) {
      if (std::find(subset.begin(), subset.end(), w) == subset.end()) continue;
      if (ctx.status()[w].last_completion == ctx.status()[*want].last_completion && w < *want) {
        ++tie_breaks;
        break;
      }
    }
  }
  // The random states reach every branch.
  EXPECT_GT(dispatched, 1000);
  EXPECT_GT(waited, 100);
  EXPECT_GT(fallbacks, 20);
  EXPECT_GT(tie_breaks, 100);
}

TEST(IdleChoice, FinishedPolicyDispatchesNothing) {
  StateContext ctx(3);
  SelfSchedulingPolicy policy("x", ChunkSequence::equal(2.0, 1.0), 3);
  EXPECT_TRUE(policy.next_dispatch(ctx).has_value());
  EXPECT_TRUE(policy.next_dispatch(ctx).has_value());
  EXPECT_TRUE(policy.finished());
  EXPECT_FALSE(policy.next_dispatch(ctx).has_value());
}

/// Runs a self-scheduling policy inside the engine and, at every callback,
/// checks the engine's idle index against the worker statuses and the
/// policy's pick against the worker scan.
class IdleIndexAuditor final : public sim::SchedulerPolicy {
 public:
  IdleIndexAuditor(SelfSchedulingPolicy& inner, std::vector<std::size_t> workers)
      : inner_(inner), workers_(std::move(workers)) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] bool finished() const override { return inner_.finished(); }
  [[nodiscard]] double total_work() const override { return inner_.total_work(); }

  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override {
    check_index(ctx);
    const std::optional<std::size_t> want =
        inner_.finished() ? std::nullopt : oracle_pick(ctx, workers_);
    const std::optional<sim::Dispatch> got = inner_.next_dispatch(ctx);
    if (want.has_value() != got.has_value() || (got && got->worker != *want)) {
      ++mismatches_;
    }
    ++picks_;
    return got;
  }
  void on_chunk_completed(const sim::MasterContext& ctx, const sim::CompletionInfo& info) override {
    check_index(ctx);
    inner_.on_chunk_completed(ctx, info);
  }
  void on_worker_down(const sim::MasterContext& ctx, std::size_t worker) override {
    check_index(ctx);
    inner_.on_worker_down(ctx, worker);
  }
  void on_worker_up(const sim::MasterContext& ctx, std::size_t worker) override {
    check_index(ctx);
    inner_.on_worker_up(ctx, worker);
  }

  [[nodiscard]] int picks() const { return picks_; }
  [[nodiscard]] int mismatches() const { return mismatches_; }
  [[nodiscard]] int index_errors() const { return index_errors_; }

 private:
  void check_index(const sim::MasterContext& ctx) {
    const std::span<const std::size_t> index = ctx.idle_workers();
    const std::vector<std::size_t> want = oracle_idle(ctx);
    if (!std::equal(index.begin(), index.end(), want.begin(), want.end())) ++index_errors_;
  }

  SelfSchedulingPolicy& inner_;
  std::vector<std::size_t> workers_;
  int picks_ = 0;
  int mismatches_ = 0;
  int index_errors_ = 0;
};

struct AuditedRun {
  sim::SimResult result;
  int picks = 0;
};

AuditedRun run_audited(const platform::StarPlatform& platform, SelfSchedulingPolicy& policy,
                       const std::vector<std::size_t>& workers, const sim::SimOptions& options,
                       double w_total) {
  IdleIndexAuditor auditor(policy, workers);
  AuditedRun run{sim::simulate(platform, auditor, options), 0};
  run.picks = auditor.picks();
  EXPECT_EQ(auditor.index_errors(), 0);
  EXPECT_EQ(auditor.mismatches(), 0);
  const check::AuditReport audit = check::audit_sim_result(run.result, platform, w_total);
  EXPECT_TRUE(audit.ok()) << audit.summary();
  return run;
}

std::vector<std::size_t> all_workers(std::size_t n) {
  std::vector<std::size_t> workers(n);
  for (std::size_t w = 0; w < n; ++w) workers[w] = w;
  return workers;
}

TEST(IdleIndex, TracksFencesRejoinsAndRedispatches) {
  // Worker 0 and 2 drop out and come back: their chunks are reclaimed and
  // drain_redispatch sends them to survivors, raising those workers'
  // outstanding counts without the policy dispatching.
  const auto platform = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 100.0});
  sim::SimOptions options;
  options.faults = faults::FaultSpec::scripted({{0, {2.0, 30.0}}, {2, {5.0, 60.0}}});
  CssPolicy policy(300.0, 4, 5.0);
  const AuditedRun run = run_audited(platform, policy, all_workers(4), options, 300.0);
  EXPECT_GT(run.result.metrics.faults.chunks_redispatched, 0u);
  EXPECT_GE(run.result.metrics.faults.rejoins, 1u);
  EXPECT_GT(run.picks, 60);
}

TEST(IdleIndex, SubsetFallbackWhenTheWholeSubsetIsDown) {
  // The subset {3, 1, 4} is gapped and out of order; all three go down
  // together, so the policy falls back to workers 0 and 2.
  const auto platform = platform::StarPlatform::homogeneous(
      {.workers = 5, .speed = 1.0, .bandwidth = 100.0, .comp_latency = 0.01});
  const std::vector<std::size_t> subset = {3, 1, 4};
  sim::SimOptions options;
  options.record_trace = true;
  options.faults =
      faults::FaultSpec::scripted({{3, {3.0, 80.0}}, {1, {3.0, 80.0}}, {4, {3.0, 80.0}}});
  FactoringPolicy policy(600.0, subset, FactoringOptions{.min_chunk = 4.0});
  const AuditedRun run = run_audited(platform, policy, subset, options, 600.0);
  EXPECT_GT(run.result.workers[0].chunks + run.result.workers[2].chunks, 0u);
  EXPECT_GT(run.result.metrics.faults.chunks_redispatched, 0u);
}

TEST(IdleIndex, TracksRandomTransientFaultsWithAndWithoutTies) {
  // Error 0 on a homogeneous platform makes completion times collide, so the
  // engine's tie order is exercised; error 0.2 spreads them.
  const auto platform = platform::StarPlatform::homogeneous(
      {.workers = 6, .speed = 1.0, .bandwidth = 60.0, .comp_latency = 0.02,
       .comm_latency = 0.01});
  std::size_t redispatched = 0;
  for (const double error : {0.0, 0.2}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      sim::SimOptions options = sim::SimOptions::with_error(error, seed);
      options.faults = faults::FaultSpec::transient(25.0, 6.0);
      CssPolicy policy(400.0, 6, 2.0);
      const AuditedRun run = run_audited(platform, policy, all_workers(6), options, 400.0);
      redispatched += run.result.metrics.faults.chunks_redispatched;
    }
  }
  EXPECT_GT(redispatched, 0u);
}

}  // namespace
}  // namespace rumr::baselines
