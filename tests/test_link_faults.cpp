/// \file test_link_faults.cpp
/// Link-fault injection (loss, latency spikes, bandwidth degradation), the
/// adaptive ACK/timeout/retransmit protocol, and partial-work checkpointing:
/// graceful completion, exactly-once compute, conservation of banked work,
/// and byte-identical replay of faulty runs.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/factoring.hpp"
#include "baselines/loop_scheduling.hpp"
#include "check/trace_audit.hpp"
#include "core/rumr.hpp"
#include "faults/fault_model.hpp"
#include "sim/master_worker.hpp"
#include "sim/trace_json.hpp"

namespace rumr {
namespace {

platform::StarPlatform uniform_platform(std::size_t workers, double bandwidth = 100.0) {
  return platform::StarPlatform::homogeneous(
      {.workers = workers, .speed = 1.0, .bandwidth = bandwidth});
}

double total_work_of(const sim::SimResult& result) {
  double total = 0.0;
  for (const auto& w : result.workers) total += w.work;
  return total;
}

// ---------------------------------------------------------------------------
// LinkTimeline unit tests
// ---------------------------------------------------------------------------

TEST(LinkTimeline, InertSpecDeliversEverythingClean) {
  faults::LinkTimeline timeline(faults::LinkFaultSpec::none(), 3, 42);
  for (std::size_t w = 0; w < 3; ++w) {
    const auto fate = timeline.message_fate(w, 1.0);
    EXPECT_FALSE(fate.lost);
    EXPECT_DOUBLE_EQ(fate.spike, 0.0);
    EXPECT_DOUBLE_EQ(fate.stretch, 1.0);
    EXPECT_FALSE(timeline.degraded_at(w, 1.0));
  }
}

TEST(LinkTimeline, RejectsInvalidSpecs) {
  EXPECT_THROW(faults::LinkTimeline(faults::LinkFaultSpec::lossy(1.5), 2, 1),
               std::invalid_argument);
  EXPECT_THROW(faults::LinkTimeline(faults::LinkFaultSpec::spiky(-0.1, 1.0), 2, 1),
               std::invalid_argument);
  EXPECT_THROW(faults::LinkTimeline(faults::LinkFaultSpec::spiky(0.5, -1.0), 2, 1),
               std::invalid_argument);
  EXPECT_THROW(faults::LinkTimeline(faults::LinkFaultSpec::degraded(10.0, 1.0, 0.5), 2, 1),
               std::invalid_argument);
}

TEST(LinkTimeline, FatesAreIndependentOfQueryOrderAcrossWorkers) {
  const auto spec = faults::LinkFaultSpec::lossy(0.5);
  faults::LinkTimeline forward(spec, 3, 99);
  faults::LinkTimeline backward(spec, 3, 99);

  // Draw three fates per worker, in opposite worker orders; per-worker lanes
  // make the sequences identical regardless of interleaving.
  std::vector<std::vector<bool>> a(3);
  std::vector<std::vector<bool>> b(3);
  for (std::size_t w = 0; w < 3; ++w) {
    for (int i = 0; i < 3; ++i) a[w].push_back(forward.message_fate(w, 0.0).lost);
  }
  for (std::size_t w = 3; w-- > 0;) {
    for (int i = 0; i < 3; ++i) b[w].push_back(backward.message_fate(w, 0.0).lost);
  }
  EXPECT_EQ(a, b);
}

TEST(LinkTimeline, LossRateMatchesSpecApproximately) {
  faults::LinkTimeline timeline(faults::LinkFaultSpec::lossy(0.25), 1, 7);
  int lost = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (timeline.message_fate(0, 0.0).lost) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.25, 0.02);
}

TEST(LinkTimeline, DegradationWindowsStretchBandwidthOnly) {
  // High mtbf/mttr ratio: find a degraded instant and check the stretch.
  faults::LinkTimeline timeline(faults::LinkFaultSpec::degraded(5.0, 5.0, 3.0), 1, 21);
  bool saw_degraded = false;
  for (double t = 0.0; t < 200.0; t += 0.5) {
    const auto fate = timeline.message_fate(0, t);
    if (timeline.degraded_at(0, t)) {
      saw_degraded = true;
      EXPECT_DOUBLE_EQ(fate.stretch, 3.0);
    } else {
      EXPECT_DOUBLE_EQ(fate.stretch, 1.0);
    }
    EXPECT_FALSE(fate.lost);  // Loss axis disabled.
  }
  EXPECT_TRUE(saw_degraded);
}

// ---------------------------------------------------------------------------
// Engine semantics under link faults
// ---------------------------------------------------------------------------

sim::SimOptions link_options(faults::LinkFaultSpec spec, std::uint64_t seed = 1) {
  sim::SimOptions options;
  options.seed = seed;
  options.record_trace = true;
  options.link = spec;
  return options;
}

TEST(LinkSim, LossyLinkRecoversViaWatchdogWithoutRetransmit) {
  const auto platform = uniform_platform(3, 10.0);
  baselines::FactoringPolicy policy(120.0, 3);
  // Without the retransmit protocol a lost payload is recovered only when
  // the completion watchdog fences the silent worker and reclaims the lease.
  const auto options = link_options(faults::LinkFaultSpec::lossy(0.15), 5);

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_GT(result.metrics.faults.messages_lost, 0u);
  EXPECT_GT(result.metrics.faults.fencings, 0u);
  EXPECT_EQ(result.metrics.faults.chunks_lost, result.metrics.faults.chunks_redispatched);
  EXPECT_NEAR(total_work_of(result), 120.0, 1e-6);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 120.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(LinkSim, RetransmitProtocolRecoversLostPayloads) {
  const auto platform = uniform_platform(3, 10.0);
  baselines::FactoringPolicy policy(120.0, 3);
  auto options = link_options(faults::LinkFaultSpec::lossy(0.15), 5);
  options.retransmit.enabled = true;

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_GT(result.metrics.faults.messages_lost, 0u);
  EXPECT_GT(result.metrics.faults.retransmits, 0u);
  EXPECT_GT(result.metrics.faults.work_retransmitted, 0.0);
  EXPECT_NEAR(total_work_of(result), 120.0, 1e-6);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 120.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(LinkSim, AggressiveRtoProducesSuppressedDuplicates) {
  const auto platform = uniform_platform(2, 10.0);
  baselines::FactoringPolicy policy(100.0, 2);
  // Latency spikes with a deliberately hair-trigger RTO: retransmissions race
  // the (slow but eventually delivered) originals, so the worker sees
  // duplicates. Lease-id suppression must drop them without recomputing.
  auto options = link_options(faults::LinkFaultSpec::spiky(0.5, 2.0), 11);
  options.retransmit.enabled = true;
  options.retransmit.rto_initial_factor = 1.0;
  options.retransmit.rto_min = 1e-4;
  options.retransmit.max_retries = 64;

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_GT(result.metrics.faults.latency_spikes, 0u);
  EXPECT_GT(result.metrics.faults.retransmits, 0u);
  EXPECT_GT(result.metrics.faults.duplicates_suppressed, 0u);
  EXPECT_LE(result.metrics.faults.duplicates_suppressed, result.metrics.faults.retransmits);
  EXPECT_NEAR(total_work_of(result), 100.0, 1e-6);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 100.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(LinkSim, DegradedWindowsSlowTheRunDown) {
  const auto platform = uniform_platform(3, 5.0);
  const auto clean_options = link_options(faults::LinkFaultSpec::none(), 3);
  const auto degraded_options =
      link_options(faults::LinkFaultSpec::degraded(2.0, 4.0, 8.0), 3);

  baselines::FactoringPolicy clean_policy(200.0, 3);
  const sim::SimResult clean = simulate(platform, clean_policy, clean_options);
  baselines::FactoringPolicy degraded_policy(200.0, 3);
  const sim::SimResult degraded = simulate(platform, degraded_policy, degraded_options);

  EXPECT_GT(degraded.metrics.faults.degraded_sends, 0u);
  EXPECT_GT(degraded.makespan, clean.makespan);
  EXPECT_NEAR(total_work_of(degraded), 200.0, 1e-6);

  const check::AuditReport audit = check::audit_sim_result(degraded, platform, 200.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(LinkSim, FaultyLinkRunsReplayByteIdentical) {
  const auto platform = uniform_platform(3, 10.0);
  auto options = link_options(
      faults::LinkFaultSpec{.loss = 0.1, .spike_probability = 0.2, .spike_mean = 1.0,
                            .degraded_mtbf = 5.0, .degraded_mttr = 2.0, .degraded_factor = 2.0},
      23);
  options.retransmit.enabled = true;
  options.checkpoint.interval = 0.5;

  const auto run = [&] {
    baselines::FactoringPolicy policy(150.0, 3);
    return simulate(platform, policy, options);
  };
  const sim::SimResult a = run();
  const sim::SimResult b = run();

  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.metrics.faults.messages_lost, b.metrics.faults.messages_lost);
  EXPECT_EQ(a.metrics.faults.retransmits, b.metrics.faults.retransmits);
  EXPECT_EQ(a.metrics.faults.duplicates_suppressed, b.metrics.faults.duplicates_suppressed);
  EXPECT_EQ(a.metrics.faults.checkpoints_banked, b.metrics.faults.checkpoints_banked);
  EXPECT_DOUBLE_EQ(a.metrics.faults.work_banked, b.metrics.faults.work_banked);
  EXPECT_EQ(sim::to_chrome_tracing(a.trace), sim::to_chrome_tracing(b.trace));
}

TEST(LinkSim, InertLinkSpecAddsNothing) {
  const auto platform = uniform_platform(2);
  const auto run = [&](bool with_link_member) {
    baselines::FactoringPolicy policy(40.0, 2);
    sim::SimOptions options;
    options.seed = 9;
    options.record_trace = true;
    if (with_link_member) options.link = faults::LinkFaultSpec::none();
    return simulate(platform, policy, options);
  };
  const sim::SimResult baseline = run(false);
  const sim::SimResult with_spec = run(true);

  EXPECT_DOUBLE_EQ(with_spec.makespan, baseline.makespan);
  EXPECT_EQ(with_spec.metrics.faults.messages_lost, 0u);
  EXPECT_EQ(with_spec.metrics.faults.retransmits, 0u);
  EXPECT_EQ(with_spec.metrics.faults.work_banked, 0.0);
  EXPECT_EQ(sim::to_chrome_tracing(with_spec.trace), sim::to_chrome_tracing(baseline.trace));
}

TEST(LinkSim, RunFinishesWhenFinalCompletionRacesASettledRetransmission) {
  // Regression (found and shrunk by chaos_campaign): when the run's final
  // completion landed while the uplink was busy, a retransmission already
  // settled by that completion was still queued, maybe_finish declined, and
  // nothing ever re-checked the finish condition — the transient fault
  // timeline then respawned outage events forever and the run only died on
  // the event budget at t ~ 4.4e7. With the fix the run converges right at
  // the last completion. Exact scenario: RUMR, N=10 B=15 cLat=nLat=0.3,
  // loss=0.25, worker MTBF=400/MTTR=40, error=0.2, this seed.
  const auto platform = platform::StarPlatform::homogeneous({.workers = 10,
                                                             .speed = 1.0,
                                                             .bandwidth = 15.0,
                                                             .comp_latency = 0.3,
                                                             .comm_latency = 0.3});
  sim::SimOptions options = sim::SimOptions::with_error(0.2, 14071499262588818598ULL);
  options.record_trace = true;
  options.max_events = 2'000'000;
  options.link = faults::LinkFaultSpec::lossy(0.25);
  options.faults = faults::FaultSpec::transient(400.0, 40.0);
  options.retransmit.enabled = true;
  options.checkpoint.interval = 0.5;

  core::RumrOptions rumr_options;
  rumr_options.known_error = 0.2;
  core::RumrPolicy policy(platform, 500.0, std::move(rumr_options));
  const sim::SimResult result = simulate(platform, policy, options);

  // The stalled run burned the whole 2M-event budget; a converging one needs
  // a few hundred events.
  EXPECT_LT(result.events, 100000u);
  EXPECT_NEAR(total_work_of(result) + result.metrics.faults.work_banked, 500.0, 1e-6);
  const check::AuditReport audit = check::audit_sim_result(result, platform, 500.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(LinkSim, RejectsInvalidRetransmitAndCheckpointOptions) {
  const auto platform = uniform_platform(2);
  const auto expect_rejected = [&](sim::SimOptions options, const char* what) {
    baselines::FactoringPolicy policy(40.0, 2);
    EXPECT_THROW((void)simulate(platform, policy, options), sim::SimError) << what;
  };

  sim::SimOptions bad_alpha = link_options(faults::LinkFaultSpec::lossy(0.1));
  bad_alpha.retransmit.enabled = true;
  bad_alpha.retransmit.alpha = 0.0;
  expect_rejected(bad_alpha, "alpha = 0");

  sim::SimOptions bad_retries = link_options(faults::LinkFaultSpec::lossy(0.1));
  bad_retries.retransmit.enabled = true;
  bad_retries.retransmit.max_retries = 0;
  expect_rejected(bad_retries, "max_retries = 0");

  sim::SimOptions bad_interval = link_options(faults::LinkFaultSpec::lossy(0.1));
  bad_interval.checkpoint.interval = -1.0;
  expect_rejected(bad_interval, "negative checkpoint interval");
}

// ---------------------------------------------------------------------------
// Partial-work checkpointing
// ---------------------------------------------------------------------------

TEST(CheckpointSim, BankedWorkReducesRedispatchUnderMessageLoss) {
  // The PR's acceptance scenario: a 10% message-loss RUMR run must pass the
  // banked-work conservation audit and re-dispatch strictly less volume with
  // checkpointing on than off (only unbanked remainders travel again).
  const auto platform = uniform_platform(4, 10.0);
  const auto run = [&](double interval) {
    core::RumrPolicy policy(platform, 400.0);
    auto options = link_options(faults::LinkFaultSpec::lossy(0.10), 31);
    options.checkpoint.interval = interval;
    return simulate(platform, policy, options);
  };

  const sim::SimResult without = run(0.0);
  const sim::SimResult with = run(0.25);

  // Same seed, same loss pattern: both runs lose payloads and fence workers.
  ASSERT_GT(without.metrics.engine.work_redispatched, 0.0);
  EXPECT_GT(with.metrics.faults.checkpoints_banked, 0u);
  EXPECT_GT(with.metrics.faults.work_banked, 0.0);
  EXPECT_LT(with.metrics.engine.work_redispatched, without.metrics.engine.work_redispatched);

  EXPECT_NEAR(total_work_of(without), 400.0, 1e-4);
  EXPECT_NEAR(total_work_of(with) + with.metrics.faults.work_banked, 400.0, 1e-4);

  const check::AuditReport audit_without = check::audit_sim_result(without, platform, 400.0);
  EXPECT_TRUE(audit_without.ok()) << audit_without.summary();
  const check::AuditReport audit_with = check::audit_sim_result(with, platform, 400.0);
  EXPECT_TRUE(audit_with.ok()) << audit_with.summary();
}

TEST(CheckpointSim, BankingConservationHoldsUnderWorkerCrashes) {
  const auto platform = uniform_platform(3);
  baselines::CssPolicy policy(300.0, 3, 5.0);
  sim::SimOptions options;
  options.seed = 13;
  options.record_trace = true;
  options.faults = faults::FaultSpec::scripted({{0, {2.0, 40.0}}});
  options.checkpoint.interval = 0.5;

  const sim::SimResult result = simulate(platform, policy, options);

  // Worker 0 was mid-chunk at t=2 with >= 3 completed checkpoint intervals.
  EXPECT_GT(result.metrics.faults.checkpoints_banked, 0u);
  EXPECT_GT(result.metrics.faults.work_banked, 0.0);
  EXPECT_NEAR(total_work_of(result) + result.metrics.faults.work_banked, 300.0, 1e-6);
  // The banked fraction shrank the reclaimed remainder below the full chunk.
  EXPECT_LT(result.metrics.faults.work_lost, 5.0 * result.metrics.faults.chunks_lost);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 300.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(CheckpointSim, ZeroIntervalBanksNothing) {
  const auto platform = uniform_platform(3);
  baselines::CssPolicy policy(300.0, 3, 5.0);
  sim::SimOptions options;
  options.seed = 13;
  options.faults = faults::FaultSpec::scripted({{0, {2.0, 40.0}}});

  const sim::SimResult result = simulate(platform, policy, options);
  EXPECT_EQ(result.metrics.faults.checkpoints_banked, 0u);
  EXPECT_EQ(result.metrics.faults.work_banked, 0.0);
  EXPECT_NEAR(total_work_of(result), 300.0, 1e-6);
}

}  // namespace
}  // namespace rumr
