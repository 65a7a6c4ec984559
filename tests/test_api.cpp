// Tests for the public API facade (api/rumr.hpp): the Run, JobsRun and
// Sweep builders, their execution paths, self-auditing, and file loading.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "api/rumr.hpp"
#include "check/service_audit.hpp"

namespace rumr {
namespace {

platform::StarPlatform small_platform() {
  platform::HomogeneousParams params;
  params.workers = 4;
  params.speed = 1.0;
  params.bandwidth = 15.0;
  params.comp_latency = 0.2;
  params.comm_latency = 0.1;
  return platform::StarPlatform::homogeneous(params);
}

/// A Run of `algorithm` over `w_total` units on small_platform().
rumr::Run small_run(double w_total, const char* algorithm = "rumr") {
  rumr::Run run;
  run.description().platform = small_platform();
  run.description().w_total = w_total;
  run.description().algorithm = algorithm;
  return run;
}

TEST(RunBuilder, DefaultsAndDescriptionRoundTrip) {
  const rumr::Run defaults;
  EXPECT_EQ(defaults.description().platform.size(), 10u);  // Table-1 homogeneous.
  EXPECT_EQ(defaults.description().algorithm, "rumr");
  EXPECT_EQ(defaults.description().repetitions, 1u);
  EXPECT_FALSE(defaults.description().sim_options.record_trace);

  rumr::Run run = small_run(250.0, "umr-eager");
  run.description().known_error = 0.25;
  run.description().sim_options = sim::SimOptions::with_error(0.3, 123);
  run.description().repetitions = 7;
  const rumr::Run copy = run;  // The description is the builder's whole state.
  const config::RunDescription& desc = copy.description();
  EXPECT_EQ(desc.platform.size(), 4u);
  EXPECT_DOUBLE_EQ(desc.w_total, 250.0);
  EXPECT_EQ(desc.algorithm, "umr-eager");
  EXPECT_DOUBLE_EQ(desc.known_error, 0.25);
  EXPECT_DOUBLE_EQ(desc.sim_options.comm_error.base.error(), 0.3);
  EXPECT_EQ(desc.sim_options.seed, 123u);
  EXPECT_EQ(desc.repetitions, 7u);
}

TEST(RunBuilder, FaultAndLinkOptionsExecuteAudited) {
  rumr::Run run = small_run(200.0, "factoring");
  sim::SimOptions& o = run.description().sim_options;
  o.link = faults::LinkFaultSpec::lossy(0.05);
  o.retransmit.enabled = true;
  o.checkpoint.interval = 0.5;
  o.seed = 7;

  // A faulty run executes through the facade and passes its self-audit
  // (execute() raises check::CheckError on any violation).
  const RunResult result = run.execute();
  EXPECT_GT(result.makespan, 0.0);
  double computed = 0.0;
  for (const auto& w : result.sim.workers) computed += w.work;
  EXPECT_NEAR(computed + result.sim.metrics.faults.work_banked, 200.0, 1e-6);
}

TEST(RunBuilder, DefaultConstructedRunExecutes) {
  // The default description must be a valid, audited run out of the box.
  rumr::Run run;
  run.description().w_total = 200.0;
  const RunResult result = run.execute();
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_DOUBLE_EQ(result.metrics.makespan, result.makespan);
}

TEST(RunExecute, ProducesAuditedMetricsAndOptionalTrace) {
  rumr::Run run = small_run(300.0);
  run.description().known_error = 0.2;
  run.description().sim_options = sim::SimOptions::with_error(0.2);
  const RunResult untraced = run.execute();
  EXPECT_TRUE(untraced.trace.spans().empty());
  EXPECT_FALSE(untraced.metrics.engine.workers.empty());
  EXPECT_NEAR(untraced.metrics.engine.uplink_busy_time + untraced.metrics.engine.uplink_idle_time,
              untraced.makespan, 1e-9);

  run.description().sim_options.record_trace = true;
  const RunResult traced = run.execute();
  EXPECT_FALSE(traced.trace.spans().empty());
  EXPECT_DOUBLE_EQ(traced.makespan, untraced.makespan);
}

TEST(RunExecute, IsDeterministicAtFixedSeed) {
  rumr::Run run = small_run(300.0);
  run.description().sim_options = sim::SimOptions::with_error(0.4, 9);
  const RunResult a = run.execute();
  const RunResult b = run.execute();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.metrics.des.events_executed, b.metrics.des.events_executed);
  EXPECT_EQ(a.metrics.engine.dispatches, b.metrics.engine.dispatches);
}

TEST(RunExecuteAll, DerivesDistinctSeedsPerRepetition) {
  rumr::Run run = small_run(300.0);
  run.description().sim_options = sim::SimOptions::with_error(0.4, 9);
  run.description().repetitions = 3;
  const std::vector<RunResult> results = run.execute_all();
  ASSERT_EQ(results.size(), 3u);
  // Independent error draws: at least two repetitions should differ.
  EXPECT_TRUE(results[0].makespan != results[1].makespan ||
              results[1].makespan != results[2].makespan);
}

TEST(RunExecuteAll, TracesOnlyLastRepetition) {
  rumr::Run run = small_run(300.0);
  run.description().sim_options = sim::SimOptions::with_error(0.2);
  run.description().sim_options.record_trace = true;
  run.description().repetitions = 3;
  const std::vector<RunResult> results = run.execute_all();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].trace.spans().empty());
  EXPECT_TRUE(results[1].trace.spans().empty());
  EXPECT_FALSE(results[2].trace.spans().empty());
}

TEST(RunExecuteAll, UntracedDescriptionTracesNoRepetition) {
  rumr::Run run = small_run(300.0);
  run.description().sim_options = sim::SimOptions::with_error(0.2);
  run.description().repetitions = 2;
  for (const RunResult& result : run.execute_all()) EXPECT_TRUE(result.trace.spans().empty());
}

TEST(RunExecute, InvalidOptionsThrowSimError) {
  rumr::Run run = small_run(300.0);
  run.description().sim_options.worker_buffer_capacity = 0;
  EXPECT_THROW((void)run.execute(), sim::SimError);
}

TEST(RunExecute, UnknownAlgorithmThrowsConfigError) {
  rumr::Run run = small_run(300.0, "definitely-not-real");
  EXPECT_THROW((void)run.execute(), config::ConfigError);
}

TEST(RunFromFile, LoadsDescriptionAndExecutes) {
  const std::string path = ::testing::TempDir() + "api_facade_test.rumr";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "[platform]\n"
           "workers = 4\n"
           "bandwidth = 15\n"
           "comp_latency = 0.2\n"
           "comm_latency = 0.1\n"
           "\n"
           "[workload]\n"
           "total = 300\n"
           "\n"
           "[schedule]\n"
           "algorithm = rumr\n"
           "error = 0.2\n"
           "\n"
           "[simulation]\n"
           "error = 0.2\n"
           "seed = 42\n"
           "repetitions = 2\n";
  }
  rumr::Run run = rumr::Run::from_file(path);
  EXPECT_EQ(run.description().algorithm, "rumr");
  EXPECT_EQ(run.description().repetitions, 2u);
  const std::vector<RunResult> results = run.execute_all();
  EXPECT_EQ(results.size(), 2u);
  std::remove(path.c_str());
}

TEST(RunFromFile, MissingFileThrows) {
  EXPECT_THROW((void)rumr::Run::from_file("/nonexistent/nowhere.rumr"), config::ConfigError);
}

TEST(JobsRunFacade, BuildsExecutesAndSelfAudits) {
  rumr::Run run = small_run(0.0);
  run.description().known_error = 0.2;
  run.description().sim_options = sim::SimOptions::with_error(0.2, 7);
  rumr::JobsRun jobs_run = run.jobs();
  // Run::jobs() carried the per-job scheduler settings over.
  EXPECT_EQ(jobs_run.platform().size(), 4u);
  EXPECT_EQ(jobs_run.options().algorithm, "rumr");
  EXPECT_DOUBLE_EQ(jobs_run.options().known_error, 0.2);
  EXPECT_EQ(jobs_run.options().sim.seed, 7u);

  jobs_run.options().sharing = jobs::SharingPolicy::kFractional;
  const jobs::ServiceResult result = jobs_run.poisson_load(0.6, 20, 150.0).execute();
  EXPECT_EQ(result.arrived, 20u);
  EXPECT_EQ(result.completed, 20u);
  EXPECT_GE(result.mean_slowdown(), 1.0);
  EXPECT_NEAR(result.offered_load, 0.6, 0.4);  // Realized load tracks the target.
}

TEST(JobsRunFacade, FaultStackFlowsThroughRunJobsAndPassesServiceAudit) {
  // The whole fault stack configured on a Run — worker crashes, link loss,
  // retransmit protocol, partial-work checkpointing — must survive the
  // Run::jobs() handoff into the open-system engine, and a faulty multi-job
  // run must still satisfy every service identity.
  rumr::Run base = small_run(0.0);
  base.description().known_error = 0.2;
  sim::SimOptions& o = base.description().sim_options;
  o = sim::SimOptions::with_error(0.2, 21);
  o.faults = faults::FaultSpec::transient(200.0, 20.0);
  o.link = faults::LinkFaultSpec::lossy(0.05);
  o.retransmit.enabled = true;
  o.checkpoint.interval = 0.5;
  rumr::JobsRun jobs_run = base.jobs();
  EXPECT_DOUBLE_EQ(jobs_run.options().sim.link.loss, 0.05);
  EXPECT_DOUBLE_EQ(jobs_run.options().sim.faults.mtbf, 200.0);
  EXPECT_TRUE(jobs_run.options().sim.retransmit.enabled);
  EXPECT_DOUBLE_EQ(jobs_run.options().sim.checkpoint.interval, 0.5);

  jobs_run.options().sharing = jobs::SharingPolicy::kFractional;
  const jobs::ServiceResult result = jobs_run.poisson_load(0.5, 10, 100.0).execute();
  EXPECT_EQ(result.arrived, 10u);
  EXPECT_EQ(result.completed, 10u);
  const check::AuditReport report =
      check::audit_service_result(result, small_platform(), jobs_run.options());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(JobsRunFacade, InvalidOptionsThrowAtExecute) {
  rumr::JobsRun run;
  run.options().algorithm = "definitely-not-real";
  EXPECT_THROW((void)run.execute(), std::invalid_argument);
}

TEST(JobsRunFacade, PoissonLoadDerivesTheRateFromTheFinalPlatform) {
  rumr::JobsRun by_load;
  by_load.poisson_load(0.5, 6, 100.0);
  by_load.platform() = small_platform();  // After poisson_load: the rate follows it.

  rumr::JobsRun by_rate;
  by_rate.platform() = small_platform();
  by_rate.options().stream = jobs::JobStreamSpec::poisson(
      jobs::JobStreamSpec::rate_for_load(small_platform(), 0.5, 100.0), 6, 100.0);

  const jobs::ServiceResult a = by_load.execute();
  const jobs::ServiceResult b = by_rate.execute();
  EXPECT_EQ(a.completed, 6u);
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.residence_time, b.residence_time);
  EXPECT_EQ(a.mean_slowdown(), b.mean_slowdown());
}

TEST(JobsRunFacade, FromFileLoadsTheJobsSchema) {
  const std::string path = ::testing::TempDir() + "api_jobs_test.rumr";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "[platform]\n"
           "workers = 4\n"
           "bandwidth = 15\n"
           "\n"
           "[schedule]\n"
           "algorithm = factoring\n"
           "\n"
           "[simulation]\n"
           "seed = 5\n"
           "\n"
           "[jobs]\n"
           "load = 0.5\n"
           "jobs = 8\n"
           "mean_size = 120\n"
           "sharing = partitioned\n"
           "partitions = 2\n";
  }
  rumr::JobsRun run = rumr::JobsRun::from_file(path);
  EXPECT_EQ(run.options().algorithm, "factoring");
  EXPECT_EQ(run.options().sharing, jobs::SharingPolicy::kPartitioned);
  const jobs::ServiceResult result = run.execute();
  EXPECT_EQ(result.completed, 8u);
  std::remove(path.c_str());
}

// --- rumr::Sweep -------------------------------------------------------------

/// True when some problem string mentions `needle`.
bool mentions(const std::vector<std::string>& problems, const std::string& needle) {
  for (const std::string& p : problems) {
    if (p.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(SweepFacade, ValidateListsEveryProblemIncludingCrossFieldConflicts) {
  // No platforms yet; a shard larger than a cell; far more threads than shards.
  rumr::Sweep sweep(sweep::SweepOptions{.repetitions = 2, .threads = 64, .rep_block = 5});
  sweep.policies(std::vector<std::string>{"rumr", "not-a-policy"});
  const std::vector<std::string> problems = sweep.validate();
  EXPECT_TRUE(mentions(problems, "platform axis is empty")) << problems.size();
  EXPECT_TRUE(mentions(problems, "not-a-policy"));
  EXPECT_TRUE(mentions(problems, "shards cannot be larger"));
  EXPECT_THROW((void)sweep.execute(), std::invalid_argument);

  sweep.policies().clear();
  EXPECT_TRUE(mentions(sweep.validate(), "policy line-up is empty"));
}

TEST(SweepFacade, ValidateFlagsIdleThreads) {
  // One shard total, so 8 threads would mostly idle.
  rumr::Sweep sweep(
      sweep::SweepOptions{.errors = {0.2}, .repetitions = 2, .threads = 8, .rep_block = 2});
  sweep.platforms() = sweep::wrap_grid({{10, 1.5, 0.1, 0.05}});
  const std::vector<std::string> problems = sweep.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_TRUE(mentions(problems, "threads"));
}

TEST(SweepFacade, ExecuteRejectsTheWrongMode) {
  rumr::Sweep closed;
  closed.platforms() = sweep::wrap_grid({{10, 1.5, 0.1, 0.05}});
  EXPECT_THROW((void)closed.execute_jobs(), std::invalid_argument);
  EXPECT_THROW((void)closed.execute_race(), std::invalid_argument);

  sweep::JobsSweepOptions options;
  options.base.stream = jobs::JobStreamSpec::poisson(1.0, 4, 100.0);
  rumr::Sweep open(options);
  open.platforms() = closed.platforms();
  EXPECT_TRUE(open.validate().empty());
  EXPECT_THROW((void)open.execute(), std::invalid_argument);
  EXPECT_THROW((void)open.execute_race(), std::invalid_argument);
}

TEST(SweepFacade, EachModeStartsFromItsOwnDefaults) {
  EXPECT_EQ(std::get<sweep::SweepOptions>(rumr::Sweep().options()).repetitions, 40u);
  EXPECT_EQ(
      std::get<sweep::JobsSweepOptions>(rumr::Sweep(sweep::JobsSweepOptions{}).options())
          .repetitions,
      3u);
  const rumr::RaceSweepOptions raced =
      std::get<rumr::RaceSweepOptions>(rumr::Sweep(rumr::RaceSweepOptions{}).options());
  EXPECT_EQ(raced.race.max_reps, 256u);
  EXPECT_EQ(raced.race.block, 8u);
  EXPECT_EQ(raced.errors, sweep::error_axis());
}

/// A small closed-system sweep: 2 platforms x 2 errors x 2 policies, 3 reps.
rumr::Sweep small_closed_sweep() {
  rumr::Sweep sweep(sweep::SweepOptions{
      .errors = {0.0, 0.3}, .repetitions = 3, .w_total = 150.0, .threads = 2});
  sweep.platforms() = sweep::wrap_grid({{10, 1.5, 0.1, 0.05}, {4, 2.0, 0.3, 0.1}});
  sweep.policies(std::vector<std::string>{"rumr", "umr"});
  return sweep;
}

TEST(SweepFacade, NoConsumerBuffersAndSortsTheCells) {
  const std::vector<sweep::SweepCell> cells = small_closed_sweep().execute();
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const auto key = [](const sweep::SweepCell& c) {
      return std::tuple{c.platform_index, c.error_index, c.algorithm_index};
    };
    EXPECT_LT(key(cells[i - 1]), key(cells[i]));
  }
  for (const sweep::SweepCell& cell : cells) {
    EXPECT_EQ(cell.stats.reps, 3u);
    EXPECT_GT(cell.stats.makespan.mean(), 0.0);
  }
}

TEST(SweepFacade, ConsumerStreamsEachCellOnceAndNothingIsBuffered) {
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, int> seen;
  const std::vector<sweep::SweepCell> returned =
      small_closed_sweep().execute([&seen](const sweep::SweepCell& c) {
        ++seen[{c.platform_index, c.error_index, c.algorithm_index}];
      });
  EXPECT_TRUE(returned.empty());
  ASSERT_EQ(seen.size(), 2u * 2u * 2u);
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1);
}

TEST(SweepFacade, OpenSystemModeSweepsTheLoadAxis) {
  sweep::JobsSweepOptions options;
  options.loads = {0.4, 0.7};
  options.repetitions = 2;
  options.threads = 2;
  options.base.stream = jobs::JobStreamSpec::poisson(1.0, 5, 100.0);
  options.base.known_error = 0.1;
  options.base.sim = sim::SimOptions::with_error(0.1, 3);
  options.base.retain_jobs = false;  // Streaming mode end-to-end through the facade.

  rumr::Sweep sweep(options);
  sweep.platforms() = sweep::wrap_grid({{10, 1.5, 0.1, 0.05}});
  const std::vector<sweep::JobsSweepCell> cells = sweep.execute_jobs();
  ASSERT_EQ(cells.size(), 2u);
  for (const sweep::JobsSweepCell& cell : cells) {
    EXPECT_EQ(cell.stats.reps, 2u);
    EXPECT_EQ(cell.stats.completed, cell.stats.admitted);
    EXPECT_GT(cell.stats.horizon.mean(), 0.0);
  }
}

TEST(SweepFacade, MatchesTheRawEngineByteForByte) {
  // The facade is a description builder, not a second engine: its cells must
  // be bitwise-identical to run_sweep_streaming with the same description.
  const std::vector<sweep::PlatformConfig> configs = {{10, 1.5, 0.1, 0.05}};
  rumr::Sweep sweep(sweep::SweepOptions{
      .errors = {0.2}, .repetitions = 4, .w_total = 200.0, .base_seed = 77});
  sweep.platforms() = sweep::wrap_grid(configs);
  sweep.policies(std::vector<std::string>{"rumr", "factoring"});
  const std::vector<sweep::SweepCell> via_facade = sweep.execute();

  sweep::SweepOptions options;
  options.errors = {0.2};
  options.repetitions = 4;
  options.w_total = 200.0;
  options.base_seed = 77;
  std::vector<sweep::SweepCell> raw;
  sweep::run_sweep_streaming(
      sweep::wrap_grid(configs),
      {sweep::algorithm("rumr"), sweep::algorithm("factoring")}, options,
      [&](const sweep::SweepCell& cell) { raw.push_back(cell); });
  std::sort(raw.begin(), raw.end(), [](const sweep::SweepCell& a, const sweep::SweepCell& b) {
    return a.algorithm_index < b.algorithm_index;
  });

  ASSERT_EQ(via_facade.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(via_facade[i].stats.makespan.mean(), raw[i].stats.makespan.mean());
    EXPECT_EQ(via_facade[i].stats.makespan.variance(), raw[i].stats.makespan.variance());
    EXPECT_EQ(via_facade[i].stats.ref_wins, raw[i].stats.ref_wins);
  }
}

}  // namespace
}  // namespace rumr
