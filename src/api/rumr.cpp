#include "api/rumr.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/problems.hpp"

namespace rumr {

namespace {

/// Resolves a name-based line-up through the policy registry. An unknown
/// name becomes a spec without a factory, which validate() reports (and so
/// execute() refuses) instead of an exception here.
std::vector<sweep::AlgorithmSpec> lineup_from_names(const std::vector<std::string>& names) {
  std::vector<sweep::AlgorithmSpec> specs;
  specs.reserve(names.size());
  for (const std::string& name : names) {
    try {
      specs.push_back(sweep::algorithm(name));
    } catch (const config::ConfigError&) {
      specs.push_back({name, nullptr});
    }
  }
  return specs;
}

/// The line-up's problems: empty, or a spec left unresolved by
/// lineup_from_names (re-resolved here for the registry's message).
void append_lineup_problems(const std::vector<sweep::AlgorithmSpec>& specs,
                            std::vector<std::string>& problems) {
  if (specs.empty()) problems.emplace_back("policy line-up is empty");
  for (const sweep::AlgorithmSpec& spec : specs) {
    if (spec.make) continue;
    try {
      (void)config::resolve_policy(spec.name);
      problems.push_back("policy \"" + spec.name + "\" has no factory");
    } catch (const config::ConfigError& error) {
      problems.push_back("policy \"" + spec.name + "\": " + error.what());
    }
  }
}

void append(std::vector<std::string>& problems, std::vector<std::string> more) {
  for (std::string& p : more) problems.push_back(std::move(p));
}

void throw_if_invalid(const char* what, const std::vector<std::string>& problems) {
  if (!problems.empty()) throw std::invalid_argument(util::join_problems(what, problems));
}

/// Flags shard shapes the sharded engines would run badly: a shard larger
/// than a cell, or more threads than shards.
void append_shard_problems(std::size_t sites, std::size_t axis, std::size_t reps,
                           std::size_t rep_block, std::size_t threads,
                           std::vector<std::string>& problems) {
  if (rep_block > reps && reps > 0) {
    problems.emplace_back("rep_block (" + std::to_string(rep_block) +
                          ") exceeds repetitions (" + std::to_string(reps) +
                          ") — shards cannot be larger than a cell");
  }
  const std::size_t shards = sites * axis * sweep::shards_per_site(reps, rep_block);
  if (threads > shards && shards > 0) {
    problems.emplace_back("threads (" + std::to_string(threads) +
                          ") exceeds the total shard count (" + std::to_string(shards) +
                          ") — the extra threads would idle; lower threads or rep_block");
  }
}

/// Streams every cell to `consumer` when one is given (returning nothing);
/// otherwise buffers them and returns them sorted by `key` — site completion
/// order is scheduling-dependent, the buffered view is not.
template <typename Cell, typename Engine, typename Key>
std::vector<Cell> stream_or_buffer(const std::function<void(const Cell&)>& consumer,
                                   Engine engine, Key key) {
  std::vector<Cell> cells;
  if (consumer) {
    engine(consumer);
    return cells;
  }
  engine(std::function<void(const Cell&)>([&cells](const Cell& cell) { cells.push_back(cell); }));
  std::sort(cells.begin(), cells.end(),
            [&key](const Cell& a, const Cell& b) { return key(a) < key(b); });
  return cells;
}

/// The Sweep's options as `Mode`; an execute*() call for another mode throws.
template <typename Mode>
const Mode& mode_or_throw(const Sweep::Options& options, const char* call, const char* mode) {
  if (const Mode* held = std::get_if<Mode>(&options)) return *held;
  throw std::invalid_argument(std::string(call) + " needs a Sweep holding " + mode);
}

}  // namespace

Run::Run()
    : desc_{platform::StarPlatform::homogeneous(platform::HomogeneousParams{})} {}

Run Run::from_file(const std::string& path) {
  Run run;
  run.desc_ = config::run_from_config(config::ConfigFile::load(path));
  return run;
}

RunResult Run::execute_one(std::uint64_t rep_seed, bool trace) const {
  const std::unique_ptr<sim::SchedulerPolicy> policy = config::make_policy(desc_);
  sim::SimOptions options = desc_.sim_options;
  options.seed = rep_seed;
  options.record_trace = trace;

  RunResult out;
  out.sim = simulate(desc_.platform, *policy, options);
  out.makespan = out.sim.makespan;
  out.metrics = out.sim.metrics;

  check::audit_sim_result(out.sim, desc_.platform, desc_.w_total,
                          check::audit_options_for(options))
      .throw_if_failed();

  out.trace = std::move(out.sim.trace);
  return out;
}

RunResult Run::execute() const {
  return execute_one(desc_.sim_options.seed, desc_.sim_options.record_trace);
}

std::vector<RunResult> Run::execute_all() const {
  std::vector<RunResult> results;
  results.reserve(desc_.repetitions);
  for (std::size_t rep = 0; rep < desc_.repetitions; ++rep) {
    const bool trace = desc_.sim_options.record_trace && rep + 1 == desc_.repetitions;
    results.push_back(execute_one(stats::mix_seed(desc_.sim_options.seed, rep), trace));
  }
  return results;
}

JobsRun Run::jobs() const {
  JobsRun jobs_run;
  jobs_run.platform() = desc_.platform;
  jobs_run.options().algorithm = desc_.algorithm;
  jobs_run.options().known_error = desc_.known_error;
  jobs_run.options().sim = desc_.sim_options;
  return jobs_run;
}

JobsRun::JobsRun()
    : platform_(platform::StarPlatform::homogeneous(platform::HomogeneousParams{})) {}

JobsRun JobsRun::from_file(const std::string& path) {
  JobsRun run;
  jobs::JobsDescription description =
      jobs::jobs_from_config(config::ConfigFile::load(path));
  run.platform_ = std::move(description.platform);
  run.options_ = std::move(description.options);
  return run;
}

JobsRun& JobsRun::poisson_load(double load, std::size_t num_jobs, double mean_size) {
  options_.stream = jobs::JobStreamSpec::poisson(1.0, num_jobs, mean_size);
  pending_load_ = load;
  return *this;
}

jobs::ServiceResult JobsRun::execute() const {
  jobs::JobsOptions options = options_;
  if (pending_load_ > 0.0) {
    options.stream.arrival_rate = jobs::JobStreamSpec::rate_for_load(
        platform_, pending_load_, options.stream.mean_size);
  }
  jobs::ServiceResult result = jobs::run_jobs(platform_, options);
  check::audit_service_result(result, platform_, options).throw_if_failed();
  return result;
}

// --- Race builder ------------------------------------------------------------

Race::Race()
    : platform_(sweep::SweepPlatform::from_config(sweep::PlatformConfig{})),
      policies_(sweep::racing_competitors()) {}

Race& Race::policies(const std::vector<std::string>& names) {
  policies_ = lineup_from_names(names);
  return *this;
}

std::vector<std::string> Race::validate() const {
  std::vector<std::string> problems = options_.validate();
  append_lineup_problems(policies_, problems);
  if (!std::isfinite(error_) || error_ < 0.0) {
    problems.emplace_back("error level must be finite and non-negative");
  }
  return problems;
}

race::RaceResult Race::execute() const {
  throw_if_invalid("invalid Race description:", validate());
  return race::race_cell(platform_, policies_, error_, options_);
}

// --- Sweep builder -----------------------------------------------------------

Sweep::Sweep(Options options)
    : policies_(sweep::paper_competitors()), options_(std::move(options)) {}

Sweep& Sweep::grid(const sweep::GridSpec& spec) {
  platforms_ = sweep::wrap_grid(sweep::make_grid(spec));
  return *this;
}

Sweep& Sweep::platform(platform::StarPlatform p, std::string label) {
  platforms_.push_back({std::move(label), std::move(p)});
  return *this;
}

Sweep& Sweep::policies(const std::vector<std::string>& names) {
  policies_ = lineup_from_names(names);
  return *this;
}

std::vector<std::string> Sweep::validate() const {
  std::vector<std::string> problems;
  if (platforms_.empty()) {
    problems.emplace_back(
        "platform axis is empty — call grid() or platform(), or assign platforms()");
  }
  if (const auto* closed = std::get_if<sweep::SweepOptions>(&options_)) {
    append(problems, closed->validate());
    append_lineup_problems(policies_, problems);
    append_shard_problems(platforms_.size(), closed->errors.size(), closed->repetitions,
                          closed->rep_block, closed->threads, problems);
  } else if (const auto* open = std::get_if<sweep::JobsSweepOptions>(&options_)) {
    append(problems, open->validate());
    append_shard_problems(platforms_.size(), open->loads.size(), open->repetitions,
                          open->rep_block, open->threads, problems);
  } else {
    const RaceSweepOptions& raced = std::get<RaceSweepOptions>(options_);
    append(problems, raced.race.validate());
    if (raced.errors.empty()) problems.emplace_back("error axis is empty");
    for (double e : raced.errors) {
      if (!std::isfinite(e) || e < 0.0) {
        problems.emplace_back("error axis values must be finite and non-negative");
        break;
      }
    }
    append_lineup_problems(policies_, problems);
  }
  return problems;
}

std::vector<sweep::SweepCell> Sweep::execute(const sweep::CellConsumer& consumer) const {
  const auto& options =
      mode_or_throw<sweep::SweepOptions>(options_, "execute()", "sweep::SweepOptions");
  throw_if_invalid("invalid Sweep description:", validate());
  return stream_or_buffer(
      consumer,
      [&](const sweep::CellConsumer& sink) {
        sweep::run_sweep_streaming(platforms_, policies_, options, sink);
      },
      [](const sweep::SweepCell& c) {
        return std::tie(c.platform_index, c.error_index, c.algorithm_index);
      });
}

std::vector<sweep::JobsSweepCell> Sweep::execute_jobs(
    const sweep::JobsCellConsumer& consumer) const {
  const auto& options = mode_or_throw<sweep::JobsSweepOptions>(options_, "execute_jobs()",
                                                               "sweep::JobsSweepOptions");
  throw_if_invalid("invalid Sweep description:", validate());
  return stream_or_buffer(
      consumer,
      [&](const sweep::JobsCellConsumer& sink) {
        sweep::run_jobs_sweep(platforms_, options, sink);
      },
      [](const sweep::JobsSweepCell& c) { return std::tie(c.platform_index, c.load_index); });
}

std::vector<race::RaceCell> Sweep::execute_race(const race::RaceConsumer& consumer) const {
  const auto& options =
      mode_or_throw<RaceSweepOptions>(options_, "execute_race()", "rumr::RaceSweepOptions");
  throw_if_invalid("invalid Sweep description:", validate());
  return stream_or_buffer(
      consumer,
      [&](const race::RaceConsumer& sink) {
        race::run_race_sweep(platforms_, policies_, options.errors, options.race, sink);
      },
      [](const race::RaceCell& c) { return std::tie(c.platform_index, c.error_index); });
}

// --- Serve builder -----------------------------------------------------------

Serve::Serve(serve::ServerOptions options) : options_(std::move(options)) {}

Serve Serve::from_file(const std::string& path) {
  return Serve(serve::server_options_from_config(config::ConfigFile::load(path)));
}

std::vector<std::string> Serve::validate() const { return options_.validate(); }

std::unique_ptr<serve::Server> Serve::make_server() const {
  return std::make_unique<serve::Server>(options_);
}

obs::ServeStats Serve::run(std::istream& in, std::ostream& out) const {
  serve::Server server(options_);
  server.serve_stream(in, out);
  server.wait_idle();
  const obs::ServeStats stats = server.stats();
  if (options_.audit) check::audit_serve_stats(stats, /*drained=*/true).throw_if_failed();
  return stats;
}

}  // namespace rumr
