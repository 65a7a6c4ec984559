// Tests for the engine's model extensions: parallel uplink channels
// (simultaneous transfers) and the output-data downlink.

#include <gtest/gtest.h>

#include "baselines/static_sequence.hpp"
#include "sim/master_worker.hpp"

namespace rumr::sim {
namespace {

using baselines::StaticSequencePolicy;

platform::StarPlatform two_workers(double bandwidth = 4.0) {
  return platform::StarPlatform::homogeneous(
      {.workers = 2, .speed = 1.0, .bandwidth = bandwidth});
}

TEST(UplinkChannels, RejectsZeroChannels) {
  const platform::StarPlatform p = two_workers();
  StaticSequencePolicy policy("s", {{0, 1.0}});
  SimOptions options;
  options.uplink_channels = 0;
  EXPECT_THROW((void)simulate(p, policy, options), SimError);
}

TEST(UplinkChannels, TwoChannelsOverlapTransfers) {
  // Two equal chunks to two workers, 2 s serial each. One channel: worker 1
  // starts receiving at t=2 and finishes computing at 12. Two channels: both
  // transfers run concurrently, both workers finish at 10.
  const platform::StarPlatform p = two_workers();
  const std::vector<Dispatch> plan = {{0, 8.0}, {1, 8.0}};

  StaticSequencePolicy serial("s", plan);
  const SimResult one = simulate(p, serial, SimOptions{});
  EXPECT_DOUBLE_EQ(one.makespan, 12.0);

  StaticSequencePolicy parallel("s", plan);
  SimOptions options;
  options.uplink_channels = 2;
  const SimResult two = simulate(p, parallel, options);
  EXPECT_DOUBLE_EQ(two.makespan, 10.0);
}

TEST(UplinkChannels, MoreChannelsNeverHurtAtZeroError) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comm_latency = 0.3});
  const std::vector<Dispatch> plan = {{0, 10.0}, {1, 10.0}, {2, 10.0}, {3, 10.0}};
  double previous = 1e300;
  for (std::size_t channels : {1u, 2u, 4u}) {
    StaticSequencePolicy policy("s", plan);
    SimOptions options;
    options.uplink_channels = channels;
    const double makespan = simulate(p, policy, options).makespan;
    EXPECT_LE(makespan, previous + 1e-9) << channels << " channels";
    previous = makespan;
  }
}

TEST(UplinkChannels, BlockedSendStillHeadOfLine) {
  // Channel count 2, three chunks to worker 0 (capacity 1 forces a block)
  // then one to worker 1. The blocked send to worker 0 must not be
  // overtaken even though a second channel is free.
  const platform::StarPlatform p = two_workers(10.0);
  const std::vector<Dispatch> plan = {{0, 10.0}, {0, 10.0}, {0, 10.0}, {1, 10.0}};
  StaticSequencePolicy policy("s", plan);
  SimOptions options;
  options.uplink_channels = 2;
  const SimResult r = simulate(p, policy, options);
  EXPECT_NEAR(r.metrics.engine.work_dispatched, 40.0, 1e-9);
  // Worker 1's chunk waits behind worker 0's blocked third chunk: it cannot
  // arrive before worker 0 frees a slot at t = 11.
  EXPECT_GT(r.workers[1].first_start, 11.0);
}

TEST(OutputData, RejectsNegativeRatio) {
  const platform::StarPlatform p = two_workers();
  StaticSequencePolicy policy("s", {{0, 1.0}});
  SimOptions options;
  options.output_ratio = -0.5;
  EXPECT_THROW((void)simulate(p, policy, options), SimError);
}

TEST(OutputData, ExtendsMakespanByReturnTransfer) {
  // One worker, one chunk of 8: input 2 s, compute 8 s. With output ratio
  // 0.25 the 2-unit result takes 0.5 s on the downlink: makespan 10.5.
  const platform::StarPlatform p = platform::StarPlatform({{1.0, 4.0, 0.0, 0.0, 0.0}});
  StaticSequencePolicy policy("s", {{0, 8.0}});
  SimOptions options;
  options.output_ratio = 0.25;
  const SimResult r = simulate(p, policy, options);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0 + 8.0 + 0.5);
  EXPECT_DOUBLE_EQ(r.metrics.engine.downlink_busy_time, 0.5);
}

TEST(OutputData, DownlinkSerializesResults) {
  // Two workers finish almost together; their outputs must queue on the
  // shared downlink.
  const platform::StarPlatform p = two_workers(8.0);
  StaticSequencePolicy policy("s", {{0, 8.0}, {1, 8.0}});
  SimOptions options;
  options.output_ratio = 1.0;  // Output as big as input: 1 s each on B=8.
  options.record_trace = true;
  const SimResult r = simulate(p, policy, options);
  const auto outputs = r.trace.filter(SpanKind::kOutput);
  ASSERT_EQ(outputs.size(), 2u);
  // No overlap between the two output spans.
  EXPECT_LE(outputs[0].end, outputs[1].start + 1e-12);
  EXPECT_DOUBLE_EQ(r.metrics.engine.downlink_busy_time, 2.0);
}

TEST(OutputData, ZeroRatioLeavesPaperModelUntouched) {
  const platform::StarPlatform p = two_workers();
  StaticSequencePolicy a("s", {{0, 8.0}, {1, 8.0}});
  StaticSequencePolicy b("s", {{0, 8.0}, {1, 8.0}});
  SimOptions with_output;
  with_output.output_ratio = 0.0;
  EXPECT_DOUBLE_EQ(simulate(p, a, SimOptions{}).makespan,
                   simulate(p, b, with_output).makespan);
}

TEST(OutputData, TraceMarksOutputOnMasterRow) {
  const platform::StarPlatform p = two_workers();
  StaticSequencePolicy policy("s", {{0, 8.0}});
  SimOptions options;
  options.output_ratio = 0.5;
  options.record_trace = true;
  const SimResult r = simulate(p, policy, options);
  const std::string gantt = r.trace.render_gantt(2);
  EXPECT_NE(gantt.find('o'), std::string::npos);
}

TEST(NonStationaryError, RandomWalkRunsAndConserves) {
  const platform::StarPlatform p = two_workers();
  StaticSequencePolicy policy("s", {{0, 8.0}, {1, 8.0}, {0, 4.0}, {1, 4.0}});
  SimOptions options;
  stats::ErrorProcessSpec spec;
  spec.base = stats::ErrorModel::truncated_normal(0.2);
  spec.dynamics = stats::ErrorDynamics::kRandomWalk;
  options.comm_error = spec;
  options.comp_error = spec;
  options.seed = 33;
  const SimResult r = simulate(p, policy, options);
  EXPECT_NEAR(r.metrics.engine.work_dispatched, 24.0, 1e-9);
  EXPECT_GT(r.makespan, 0.0);
}

}  // namespace
}  // namespace rumr::sim
