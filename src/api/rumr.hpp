#pragma once

/// \file rumr.hpp
/// Single-include public API facade for the RUMR scheduling library.
///
/// `#include "api/rumr.hpp"` is the supported way to consume the library:
/// it re-exports every public subsystem header (platform description, the
/// UMR/RUMR solvers, the simulation engine's result types, observability,
/// sweeps, races, the what-if server, reporting, invariant audits) and adds
/// five builders — Run, JobsRun, Race, Sweep and Serve — that turn a
/// description into an executed, audited result without touching engine
/// internals.
///
/// Each builder holds its engine's options struct and hands it out by
/// reference; a run is described by assigning fields:
///
///   rumr::Run run;
///   rumr::config::RunDescription& d = run.description();
///   d.platform = cluster;
///   d.w_total = 1000.0;
///   d.algorithm = "rumr";
///   d.known_error = 0.3;
///   d.sim_options = rumr::sim::SimOptions::with_error(0.3, /*seed=*/42);
///   const rumr::RunResult r = run.execute();
///   std::printf("makespan %.2f, uplink %.0f%% busy\n", r.makespan,
///               100.0 * r.metrics.engine.uplink_utilization);
///
/// The builders' own members only compute something: load a file, resolve
/// policy names, derive a rate or a grid, validate, execute. Every
/// execution self-audits: a run's invariants (work conservation, resource
/// serialization, the observability identities) are verified by
/// check::audit_sim_result before the result is returned, and a violation
/// raises check::CheckError.
///
/// Grid studies go through rumr::Sweep — the single public entry point onto
/// the sharded streaming sweep engine:
///
///   rumr::Sweep sweep(rumr::sweep::SweepOptions{.repetitions = 50});
///   sweep.grid(rumr::sweep::GridSpec::decimated())
///       .policies(std::vector<std::string>{"rumr", "umr", "factoring"});
///   const std::vector<rumr::sweep::SweepCell> cells = sweep.execute();
///
/// sweep::run_sweep remains as a thin buffering compatibility wrapper over
/// the same engine.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "analysis/bounds.hpp"
#include "baselines/factoring.hpp"
#include "baselines/fsc.hpp"
#include "baselines/loop_scheduling.hpp"
#include "baselines/multi_installment.hpp"
#include "baselines/static_sequence.hpp"
#include "check/check.hpp"
#include "check/des_audit.hpp"
#include "check/merge_audit.hpp"
#include "check/serve_audit.hpp"
#include "check/service_audit.hpp"
#include "check/trace_audit.hpp"
#include "config/policy_registry.hpp"
#include "config/run_description.hpp"
#include "core/adaptive_rumr.hpp"
#include "core/rumr.hpp"
#include "core/umr.hpp"
#include "core/umr_policy.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/job_stream.hpp"
#include "jobs/jobs_config.hpp"
#include "check/race_audit.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "race/bounds.hpp"
#include "race/race.hpp"
#include "race/result.hpp"
#include "report/ascii_plot.hpp"
#include "report/csv.hpp"
#include "report/jobs_io.hpp"
#include "report/series.hpp"
#include "report/table.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_config.hpp"
#include "serve/server.hpp"
#include "sim/master_worker.hpp"
#include "sim/trace.hpp"
#include "sim/trace_json.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "sweep/scheduler_factory.hpp"

namespace rumr {

/// Everything one executed repetition produced.
struct RunResult {
  double makespan = 0.0;
  /// DES kernel, engine, and fault-layer statistics (always collected).
  obs::RunMetrics metrics;
  /// Gantt/trace spans; populated only on a traced repetition.
  sim::Trace trace;
  /// The engine's full result record (per-worker outcomes, fault summary).
  sim::SimResult sim;
};

/// Builder for a single described run (or a small repetition batch of one).
///
/// A `Run` is a thin, copyable wrapper over config::RunDescription — the same
/// structure the configuration-file front end produces — so a run can be
/// described in code (`run.description().w_total = ...`) or come from a file
/// (`Run::from_file("cluster.rumr")`) and execute identically.
class Run {
 public:
  /// Starts from the library defaults: the paper's Table-1 homogeneous
  /// 10-worker platform, algorithm "rumr", no prediction error, 1
  /// repetition. The workload (description().w_total) must be set > 0.
  Run();

  /// Loads a run-description file (see config/run_description.hpp for the
  /// schema). Throws config::ConfigError on parse or validation problems.
  [[nodiscard]] static Run from_file(const std::string& path);

  /// The description: platform, workload, algorithm (a policy key,
  /// config/policy_registry.hpp), known error, repetitions, and the engine
  /// options (actual error, seed, faults, record_trace, ...).
  [[nodiscard]] const config::RunDescription& description() const noexcept { return desc_; }
  [[nodiscard]] config::RunDescription& description() noexcept { return desc_; }

  /// Opens this run's workload into a multi-job stream: a JobsRun seeded
  /// with the same platform, per-job scheduler algorithm, known error, and
  /// engine options. Configure arrivals and sharing on the returned builder.
  [[nodiscard]] class JobsRun jobs() const;

  /// Executes one repetition (the description's seed) and returns it.
  /// Throws sim::SimError on invalid options or policy misbehavior and
  /// check::CheckError on an audit violation.
  [[nodiscard]] RunResult execute() const;

  /// Executes all repetitions with per-repetition derived seeds (seed, rep)
  /// — the same derivation the CLI and sweep front ends use — tracing only
  /// the last repetition when sim_options.record_trace is on.
  [[nodiscard]] std::vector<RunResult> execute_all() const;

 private:
  [[nodiscard]] RunResult execute_one(std::uint64_t rep_seed, bool trace) const;

  config::RunDescription desc_;
};

/// Builder for a multi-job open-system run (jobs::run_jobs under the hood).
///
///   rumr::Run run;
///   run.description().platform = cluster;
///   rumr::JobsRun jobs = run.jobs();
///   jobs.options().sharing = rumr::jobs::SharingPolicy::kFractional;
///   const rumr::jobs::ServiceResult r = jobs.poisson_load(0.7, 100, 300.0).execute();
///   std::printf("mean slowdown %.2f\n", r.mean_slowdown());
///
/// Like Run, every execute() self-audits — check::audit_service_result
/// verifies the counter ledger, per-job work conservation, share
/// disjointness, and Little's law; a violation raises check::CheckError.
class JobsRun {
 public:
  /// Starts from the library defaults: the paper's Table-1 homogeneous
  /// 10-worker platform, exclusive sharing, FCFS, an unbounded queue, and a
  /// 100-job Poisson stream.
  JobsRun();

  /// Loads a [jobs] description file (see jobs/jobs_config.hpp for the
  /// schema). Throws config::ConfigError on parse or validation problems.
  [[nodiscard]] static JobsRun from_file(const std::string& path);

  /// Poisson arrivals offering `load` (fraction of the platform's aggregate
  /// compute capacity, e.g. 0.7). The rate is derived from platform() at
  /// execute() time, so it tracks later platform changes, and it overrides
  /// any options().stream.arrival_rate set afterwards.
  JobsRun& poisson_load(double load, std::size_t num_jobs, double mean_size);

  [[nodiscard]] const platform::StarPlatform& platform() const noexcept { return platform_; }
  [[nodiscard]] platform::StarPlatform& platform() noexcept { return platform_; }

  /// The engine options: arrivals, sharing, queueing, the per-job scheduler
  /// (same vocabulary as Run's algorithm), and the inner-engine options.
  [[nodiscard]] const jobs::JobsOptions& options() const noexcept { return options_; }
  [[nodiscard]] jobs::JobsOptions& options() noexcept { return options_; }

  /// Runs the open system to drain. Throws std::invalid_argument on
  /// non-validating options, sim::SimError from inner engine runs, and
  /// check::CheckError on an audit violation.
  [[nodiscard]] jobs::ServiceResult execute() const;

 private:
  platform::StarPlatform platform_;
  jobs::JobsOptions options_{};
  double pending_load_ = 0.0;  ///< poisson_load() fraction; 0 = explicit rate.
};

/// Builder for a single best-arm race (race/race.hpp): which policy wins on
/// *this* platform under *this* error regime, certified at level
/// options().delta.
///
///   rumr::Race race;
///   race.platform() = {"render-farm", cluster};
///   race.error() = 0.3;
///   const rumr::race::RaceResult r = race.execute();
///   std::printf("winner %s after %zu sims (%.1fx fewer than fixed-rep)\n",
///               r.arms[r.winner].name.c_str(), r.total_samples,
///               r.sims_saved_ratio());
///
/// validate() returns every problem at once; execute() throws
/// std::invalid_argument carrying them. Every execute() self-audits unless
/// options().audit_runs/audit_result are cleared — each simulation through
/// check::audit_sim_result and the finished race through
/// check::audit_race_result. Results are byte-identical for every
/// options().threads setting.
class Race {
 public:
  /// Starts from the paper's Table-1 homogeneous 10-worker platform, the
  /// racing_competitors() line-up, error 0.3, and race::RaceOptions'
  /// defaults (delta 0.05, blocks of 8, a 256-repetition per-arm budget).
  Race();

  /// Policy keys (config/policy_registry.hpp), labelled with their display
  /// names. Unknown keys are reported by validate() rather than thrown here.
  Race& policies(const std::vector<std::string>& names);

  /// The platform to race on. Its label is the platform's seed identity
  /// (sweep::derive_rep_seed hashes it) — keep it stable.
  [[nodiscard]] const sweep::SweepPlatform& platform() const noexcept { return platform_; }
  [[nodiscard]] sweep::SweepPlatform& platform() noexcept { return platform_; }
  [[nodiscard]] const std::vector<sweep::AlgorithmSpec>& policies() const noexcept {
    return policies_;
  }
  [[nodiscard]] std::vector<sweep::AlgorithmSpec>& policies() noexcept { return policies_; }
  /// Actual prediction-error level driving every repetition.
  [[nodiscard]] double error() const noexcept { return error_; }
  [[nodiscard]] double& error() noexcept { return error_; }
  [[nodiscard]] const race::RaceOptions& options() const noexcept { return options_; }
  [[nodiscard]] race::RaceOptions& options() noexcept { return options_; }

  /// Every problem with the current description; empty = executable.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Runs the race. Throws std::invalid_argument listing every validate()
  /// problem, and check::CheckError on an audit violation.
  [[nodiscard]] race::RaceResult execute() const;

 private:
  sweep::SweepPlatform platform_;
  std::vector<sweep::AlgorithmSpec> policies_;
  double error_ = 0.3;
  race::RaceOptions options_{};
};

/// A Sweep's race mode: every (platform, error) cell of the axis runs a
/// best-arm race over the line-up instead of a fixed repetition count.
struct RaceSweepOptions {
  std::vector<double> errors = sweep::error_axis();
  race::RaceOptions race{};
};

/// Builder for a full parameter sweep — the single public entry point onto
/// the sharded streaming sweep engine (sweep/runner.hpp).
///
/// The options struct it holds is its mode:
///
///   - sweep::SweepOptions (the default) — **closed-system**: platforms x
///     error axis x policies, every repetition a whole-workload race of the
///     line-up; run with execute().
///   - sweep::JobsSweepOptions — **open-system**: platforms x offered-load
///     axis over a jobs::JobsOptions template; run with execute_jobs().
///   - RaceSweepOptions — **race**: every (platform, error) cell runs a
///     best-arm race (race/race.hpp) over the line-up; run with
///     execute_race().
///
/// Each mode's defaults (40 / 3 / 256 repetitions, ...) are its struct's.
/// Given a consumer, execute*() streams every cell to it the moment its
/// site's last shard lands (serialized, order across sites unspecified)
/// and buffers nothing, so memory stays O(1) in the grid size; without
/// one, the cells are buffered and returned in index order. Results are
/// byte-identical for every thread count — the shard structure, per-rep
/// seeds (sweep::derive_rep_seed), and merge order never depend on it.
///
/// validate() returns the full list of problems (empty = executable);
/// execute*() call it and raise std::invalid_argument carrying every
/// problem at once.
class Sweep {
 public:
  using Options = std::variant<sweep::SweepOptions, sweep::JobsSweepOptions, RaceSweepOptions>;

  /// Starts empty of platforms (choose the scale explicitly — a sweep is an
  /// expensive operation) with the section 5.1 competitor line-up and
  /// `options` (default: a closed-system sweep with the paper defaults).
  explicit Sweep(Options options = sweep::SweepOptions{});

  /// Replaces the platform axis with a Table 1-style lattice.
  Sweep& grid(const sweep::GridSpec& spec);
  /// Appends one custom platform to the axis. The label is the platform's
  /// seed identity — keep it stable.
  Sweep& platform(platform::StarPlatform p, std::string label);
  /// Policy keys (config/policy_registry.hpp), labelled with their display
  /// names. Unknown keys are reported by validate() (and execute*()) rather
  /// than thrown here.
  Sweep& policies(const std::vector<std::string>& names);

  [[nodiscard]] const std::vector<sweep::SweepPlatform>& platforms() const noexcept {
    return platforms_;
  }
  [[nodiscard]] std::vector<sweep::SweepPlatform>& platforms() noexcept { return platforms_; }
  /// The line-up (closed-system and race modes; open-system ignores it).
  [[nodiscard]] const std::vector<sweep::AlgorithmSpec>& policies() const noexcept {
    return policies_;
  }
  [[nodiscard]] std::vector<sweep::AlgorithmSpec>& policies() noexcept { return policies_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] Options& options() noexcept { return options_; }

  /// Every problem with the current description, human-readable, in one
  /// pass: an empty platform axis, an empty or unresolved line-up, the
  /// mode's own option problems, rep_block exceeding repetitions, and
  /// threads exceeding the shard count.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Runs a closed-system sweep. Throws std::invalid_argument in another
  /// mode or listing every validate() problem. The returned cells are empty
  /// when a consumer is given (not [[nodiscard]] for that reason).
  std::vector<sweep::SweepCell> execute(const sweep::CellConsumer& consumer = {}) const;

  /// Runs an open-system sweep (cells indexed by (platform, load)).
  std::vector<sweep::JobsSweepCell> execute_jobs(
      const sweep::JobsCellConsumer& consumer = {}) const;

  /// Runs a raced sweep (cells indexed by (platform, error)).
  std::vector<race::RaceCell> execute_race(const race::RaceConsumer& consumer = {}) const;

 private:
  std::vector<sweep::SweepPlatform> platforms_;
  std::vector<sweep::AlgorithmSpec> policies_;
  Options options_;
};

/// Builder for the what-if scheduling server (serve/server.hpp): concurrent
/// platform+workload+policy queries answered from a content-addressed plan
/// cache, with request-level admission control in the jobs:: vocabulary.
///
///   std::istringstream in(framed_requests);
///   std::ostringstream out;
///   const rumr::obs::ServeStats stats =
///       rumr::Serve(rumr::serve::ServerOptions{.threads = 4, .cache_capacity = 1024})
///           .run(in, out);
///   std::printf("%llu lookups, %llu hits\n",
///               (unsigned long long)stats.plan_cache.lookups,
///               (unsigned long long)stats.plan_cache.hits);
///
/// validate() returns every problem at once; make_server() and run() throw
/// std::invalid_argument carrying them. Every run() self-audits unless
/// options().audit is cleared — the finished session's counter ledger is
/// verified by check::audit_serve_stats (admitted + rejected + shed ==
/// received, hits + misses == lookups, solves == misses, ...); a violation
/// raises check::CheckError. Responses are a pure function of the request
/// bytes: a warm-cache answer is byte-identical to the cold one.
class Serve {
 public:
  /// Default options: auto-width executor, serial batches, a 4096-entry /
  /// 64 MiB / 16-shard plan cache, a 64-deep FCFS queue with reject-new
  /// admission, auditing on.
  explicit Serve(serve::ServerOptions options = {});

  /// Loads a [serve] description file (see serve/serve_config.hpp for the
  /// schema). Throws config::ConfigError on parse problems.
  [[nodiscard]] static Serve from_file(const std::string& path);

  [[nodiscard]] const serve::ServerOptions& options() const noexcept { return options_; }
  [[nodiscard]] serve::ServerOptions& options() noexcept { return options_; }

  /// Every problem with the current description; empty = servable.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Builds a live server for programmatic submit()/handle() use. Throws
  /// std::invalid_argument listing every validate() problem.
  [[nodiscard]] std::unique_ptr<serve::Server> make_server() const;

  /// Serves one framed session (read requests from `in`, write responses to
  /// `out`) to drain, then returns the audited final statistics. Throws
  /// std::invalid_argument on non-validating options and check::CheckError
  /// on a ledger violation.
  [[nodiscard]] obs::ServeStats run(std::istream& in, std::ostream& out) const;

 private:
  serve::ServerOptions options_;
};

}  // namespace rumr
