// Table-1 grid workloads: the paper's extended line-up swept over a stated
// grid through sweep::run_sweep_streaming. A pass is one call over the whole
// grid (every platform x the error axis x the line-up x the repetitions), as
// the repository's own table benches run it. Set-up and timed passes run at
// 1 thread, the timed ones cut into sub-millisecond slices; one final pass
// at N threads checks that the results do not depend on the thread count.
//
//   grid-latency       N in {10,30,50}, B/N in {1.2,1.6,2.0},
//                      cLat, nLat in {0.3,0.7,1.0}, error 0.24,
//                      2 repetitions; policy construction dominates.
//   grid-zero-latency  N in {10,30,50}, B/N = 1.6, cLat = nLat = 0,
//                      error 0.24, 1 repetition; FSC hits its chunk floor
//                      and the DES kernel and engine dominate.
//
// Each pass is kept short (about 0.2 s and 0.5 s on one thread) so that a
// 30 s run holds 50 or more of them: see measure().

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/trace_audit.hpp"
#include "common.hpp"
#include "sim/master_worker.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "sweep/scheduler_factory.hpp"

namespace perfbench {
namespace {

using rumr::sweep::AlgorithmSpec;
using rumr::sweep::CellStats;
using rumr::sweep::SweepPlatform;

constexpr double kWorkload = 1000.0;

struct GridInputs {
  std::vector<SweepPlatform> platforms;
  std::vector<AlgorithmSpec> algorithms;
  rumr::sweep::SweepOptions options;  ///< threads is set per pass.

  [[nodiscard]] std::size_t runs_per_platform() const {
    return options.errors.size() * options.repetitions * algorithms.size();
  }
};

/// The workload's inputs for one seed. The grid is fixed; the seed picks the
/// perturbation draws of every repetition (the sweep's base seed).
GridInputs make_inputs(bool zero_latency, std::uint64_t seed) {
  rumr::sweep::GridSpec spec;
  spec.n_values = {10, 30, 50};
  GridInputs inputs;
  if (zero_latency) {
    spec.b_over_n_values = {1.6};
    spec.clat_values = {0.0};
    spec.nlat_values = {0.0};
  } else {
    spec.b_over_n_values = {1.2, 1.6, 2.0};
    spec.clat_values = {0.3, 0.7, 1.0};
    spec.nlat_values = {0.3, 0.7, 1.0};
  }
  inputs.options.errors = {0.24};
  inputs.options.repetitions = zero_latency ? 1 : 2;
  inputs.platforms = rumr::sweep::wrap_grid(rumr::sweep::make_grid(spec));
  inputs.algorithms = rumr::sweep::extended_competitors();
  inputs.options.w_total = kWorkload;
  inputs.options.base_seed = mix(seed, 0x6772696475ULL);
  inputs.options.audit_runs = true;
  return inputs;
}

/// The order-independent summary of one cell the checks compare.
struct CellSummary {
  std::size_t reps = 0;
  std::size_t ref_wins = 0;
  std::size_t ref_wins_by_10pct = 0;
  double makespan_mean = 0.0;
  double makespan_variance = 0.0;
  double uplink_utilization_mean = 0.0;
  std::uint64_t events = 0;  ///< DES events summed over the cell's repetitions.
};

CellSummary summarize(const CellStats& cell) {
  CellSummary s;
  s.reps = cell.reps;
  s.ref_wins = cell.ref_wins;
  s.ref_wins_by_10pct = cell.ref_wins_by_10pct;
  s.makespan_mean = cell.makespan.mean();
  s.makespan_variance = cell.makespan.variance();
  s.uplink_utilization_mean = cell.uplink_utilization.mean();
  // Per-run event counts are integers; their Welford sum rounds back exactly.
  s.events = static_cast<std::uint64_t>(std::llround(cell.events.sum()));
  return s;
}

/// One platform's streamed output, cells indexed [error][algorithm].
struct PlatformOutput {
  std::vector<CellSummary> cells;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

/// The clock of a timed 1-thread pass. It cuts the pass into consecutive
/// slices: one boundary where each run starts (before its policy is built),
/// one every kSliceCallbacks policy callbacks, and one where the run's policy
/// is destroyed (after the audit). The engine is deterministic, so every
/// pass of one grid cuts into the same slices, each under a millisecond of
/// work, and a slice's time can be compared across passes.
class SliceClock {
 public:
  static constexpr std::uint64_t kSliceCallbacks = 1024;

  void start() {
    stamps_.clear();
    stamps_.push_back(Clock::now());
  }
  void mark() { stamps_.push_back(Clock::now()); }
  [[nodiscard]] std::size_t marks() const noexcept { return stamps_.size(); }
  [[nodiscard]] std::size_t slices() const noexcept { return stamps_.size() - 1; }
  [[nodiscard]] double slice_s(std::size_t k) const {
    return std::chrono::duration<double>(stamps_[k + 1] - stamps_[k]).count();
  }

 private:
  std::vector<Clock::time_point> stamps_;
};

/// Forwarding SchedulerPolicy of the timed passes: every call forwards, and
/// the decision callbacks are counted to cut slices. It reads the clock once
/// per kSliceCallbacks callbacks, not per callback as TimedPolicy does.
class SlicedPolicy final : public rumr::sim::SchedulerPolicy {
 public:
  SlicedPolicy(std::unique_ptr<rumr::sim::SchedulerPolicy> inner, SliceClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}
  ~SlicedPolicy() override { clock_.mark(); }
  SlicedPolicy(const SlicedPolicy&) = delete;
  SlicedPolicy& operator=(const SlicedPolicy&) = delete;

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  std::optional<rumr::sim::Dispatch> next_dispatch(const rumr::sim::MasterContext& ctx) override {
    tick();
    return inner_->next_dispatch(ctx);
  }
  void on_chunk_completed(const rumr::sim::MasterContext& ctx,
                          const rumr::sim::CompletionInfo& info) override {
    tick();
    inner_->on_chunk_completed(ctx, info);
  }
  void on_worker_down(const rumr::sim::MasterContext& ctx, std::size_t worker) override {
    tick();
    inner_->on_worker_down(ctx, worker);
  }
  void on_worker_up(const rumr::sim::MasterContext& ctx, std::size_t worker) override {
    tick();
    inner_->on_worker_up(ctx, worker);
  }
  [[nodiscard]] std::optional<rumr::des::SimTime> next_poll_time() const override {
    return inner_->next_poll_time();
  }
  [[nodiscard]] bool finished() const override { return inner_->finished(); }
  [[nodiscard]] double total_work() const override { return inner_->total_work(); }

 private:
  void tick() {
    if (++callbacks_ % SliceClock::kSliceCallbacks == 0) clock_.mark();
  }

  std::unique_ptr<rumr::sim::SchedulerPolicy> inner_;
  SliceClock& clock_;
  std::uint64_t callbacks_ = 0;
};

/// The line-up with every policy wrapped in a SlicedPolicy on `clock`.
std::vector<AlgorithmSpec> sliced(const std::vector<AlgorithmSpec>& algorithms,
                                  SliceClock& clock) {
  std::vector<AlgorithmSpec> wrapped;
  for (const AlgorithmSpec& spec : algorithms) {
    wrapped.push_back(
        {spec.name,
         [make = spec.make, &clock](const rumr::platform::StarPlatform& platform, double w_total,
                                    double error) -> std::unique_ptr<rumr::sim::SchedulerPolicy> {
           clock.mark();
           return std::make_unique<SlicedPolicy>(make(platform, w_total, error), clock);
         }});
  }
  return wrapped;
}

/// One run_sweep_streaming call over `platforms` (indices into the grid) at
/// `threads`. Returns the wall time and each platform's output. With a
/// `clock` (1 thread only), the pass runs the sliced line-up on it, and
/// site s (platform-major) owns slices [site_begin[s], site_begin[s + 1]).
double sweep_pass(const GridInputs& inputs, const std::vector<std::size_t>& platforms,
                  std::size_t threads, std::vector<PlatformOutput>& outputs,
                  SliceClock* clock = nullptr, std::vector<std::size_t>* site_begin = nullptr) {
  rumr::sweep::SweepOptions options = inputs.options;
  options.threads = threads;
  std::vector<SweepPlatform> sites;
  for (const std::size_t p : platforms) sites.push_back(inputs.platforms[p]);
  const std::size_t algos = inputs.algorithms.size();
  const std::size_t per_platform = options.errors.size() * algos;
  std::vector<CellSummary> cells(sites.size() * per_platform);
  std::vector<std::size_t> emitted(sites.size(), 0);
  const std::vector<AlgorithmSpec> algorithms =
      clock != nullptr ? sliced(inputs.algorithms, *clock) : inputs.algorithms;
  const std::size_t site_count = sites.size() * options.errors.size();
  if (site_begin != nullptr) site_begin->assign(site_count + 1, 0);
  if (clock != nullptr) clock->start();
  const auto start = Clock::now();
  rumr::sweep::run_sweep_streaming(
      sites, algorithms, options, [&](const rumr::sweep::SweepCell& cell) {
        // The slice open at a site's emission already belongs to the next
        // site: it ends where that site's first run starts.
        if (site_begin != nullptr && cell.algorithm_index == 0) {
          (*site_begin)[cell.platform_index * options.errors.size() + cell.error_index + 1] =
              clock->marks() - 1;
        }
        cells[cell.platform_index * per_platform + cell.error_index * algos +
              cell.algorithm_index] = summarize(cell.stats);
        ++emitted[cell.platform_index];
      });
  const double wall_s = seconds_since(start);
  if (clock != nullptr) clock->mark();
  if (site_begin != nullptr) (*site_begin)[site_count] = clock->slices();

  outputs.assign(sites.size(), PlatformOutput{});
  for (std::size_t p = 0; p < sites.size(); ++p) {
    PlatformOutput& out = outputs[p];
    Digest digest;
    digest.u64(emitted[p]);
    for (std::size_t c = p * per_platform; c < (p + 1) * per_platform; ++c) {
      const CellSummary& s = cells[c];
      digest.u64(s.reps);
      digest.u64(s.ref_wins);
      digest.u64(s.ref_wins_by_10pct);
      digest.f64(s.makespan_mean);
      digest.f64(s.makespan_variance);
      digest.f64(s.uplink_utilization_mean);
      digest.u64(s.events);
      out.events += s.events;
      out.cells.push_back(s);
    }
    out.digest = digest.value();
  }
  return wall_s;
}

std::vector<std::size_t> all_platforms(const GridInputs& inputs) {
  std::vector<std::size_t> all(inputs.platforms.size());
  for (std::size_t p = 0; p < all.size(); ++p) all[p] = p;
  return all;
}

/// True when every output in `got` has the digest of platform `platforms[i]`
/// in `want` (a whole-grid pass).
bool same_digests(const std::vector<PlatformOutput>& got, const std::vector<std::size_t>& platforms,
                  const std::vector<PlatformOutput>& want) {
  if (got.size() != platforms.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].digest != want[platforms[i]].digest) return false;
  }
  return true;
}

// --- untraced run: end-to-end metrics ---------------------------------------

void measure(const Options& options, bool zero_latency, Result& result) {
  // Set-up: build the grid and the line-up, then one untimed warm-up pass
  // over the whole grid at 1 thread. The first set-up's cell digests are the
  // reference every later pass must reproduce.
  GridInputs inputs;
  std::vector<std::size_t> platforms;
  std::vector<double> setup_times;
  std::vector<PlatformOutput> reference;
  std::vector<PlatformOutput> pass;
  const auto set_up = [&] {
    const auto start = Clock::now();
    inputs = make_inputs(zero_latency, options.seed);
    platforms = all_platforms(inputs);
    (void)sweep_pass(inputs, platforms, 1, pass);
    setup_times.push_back(seconds_since(start));
    ++result.attempted;
    if (reference.empty()) reference = pass;
    result.check(same_digests(pass, platforms, reference),
                 "cell digest changed between set-ups of one seed");
  };
  set_up();

  // Timed passes: the whole grid in one call at 1 thread, cut into slices
  // of under a millisecond (SliceClock). Every pass is the same work, so a
  // slice costs the same in every pass; passes differ only by interference
  // from the rest of the machine, which on a shared host comes in spells
  // that slow memory-bound code by up to 2x. Each slice's time is
  // therefore its fastest over the passes, a figure the short gaps between
  // spells reach. Every pass must cut into the same slices and reproduce the
  // reference digests.
  const std::size_t site_count = platforms.size() * inputs.options.errors.size();
  SliceClock clock;
  std::vector<std::size_t> site_begin;
  std::vector<double> best_s;
  std::vector<double> pass_rates;
  bool repeat_ok = true;
  bool slices_ok = true;
  const auto runs_per_pass = static_cast<double>(platforms.size() * inputs.runs_per_platform());
  const auto start = Clock::now();
  do {
    if (setup_due(setup_times.size(), seconds_since(start), options.seconds)) set_up();
    const double wall_s = sweep_pass(inputs, platforms, 1, pass, &clock, &site_begin);
    repeat_ok = repeat_ok && same_digests(pass, platforms, reference);
    if (best_s.empty()) best_s.assign(clock.slices(), std::numeric_limits<double>::infinity());
    slices_ok = slices_ok && clock.slices() == best_s.size();
    for (std::size_t k = 0; k < std::min(best_s.size(), clock.slices()); ++k) {
      best_s[k] = std::min(best_s[k], clock.slice_s(k));
    }
    pass_rates.push_back(runs_per_pass / wall_s);
    ++result.attempted;
  } while (seconds_since(start) < options.seconds || setup_times.size() < kSetups);
  result.check(repeat_ok,
               "cell digest changed between timed passes of one seed");
  result.check(slices_ok, "timed passes of one grid cut into different slices");

  // Thread-count byte identity: one pass at N threads must reproduce the
  // 1-thread digests. It runs after the peak resident set is read, because
  // its peak depends on how its threads happened to overlap.
  const double peak_mb = peak_rss_mb();
  std::vector<PlatformOutput> parallel;
  (void)sweep_pass(inputs, platforms, options.threads, parallel);
  ++result.attempted;
  result.check(same_digests(parallel, platforms, reference),
               "cell digest differs between 1 thread and N threads");

  double best_total_s = 0.0;
  for (const double slice_s : best_s) best_total_s += slice_s;
  std::vector<double> site_ms;
  for (std::size_t site = 0; site < site_count; ++site) {
    double site_s = 0.0;
    for (std::size_t k = site_begin[site]; k < site_begin[site + 1]; ++k) {
      site_s += best_s[k];
    }
    site_ms.push_back(site_s * 1e3);
  }

  std::cerr << "perfbench: " << options.workload << " timed passes=" << pass_rates.size()
            << " sites per pass=" << site_count << " slices per pass=" << best_s.size()
            << " failed_frac="
            << static_cast<double>(result.failed) / static_cast<double>(result.attempted)
            << " pass rate min/p25/p75/max=" << quantile(pass_rates, 0.0) << "/"
            << quantile(pass_rates, 0.25) << "/" << quantile(pass_rates, 0.75) << "/"
            << quantile(pass_rates, 1.0) << "\n";
  result.metric("setup_s", quantile(setup_times, 0.5), "s");
  result.metric("ops_per_s", runs_per_pass / best_total_s, "1/s");
  result.metric("latency_p50_ms", quantile(site_ms, 0.5), "ms");
  result.metric("latency_p90_ms", quantile(site_ms, 0.9), "ms");
  result.metric("peak_rss_mb", peak_mb, "MiB");
}

// --- traced run: per-layer metrics ------------------------------------------

/// Totals of the traced serial replays.
struct Replay {
  std::size_t passes = 0;
  double wall_s = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t sites = 0;
  std::uint64_t events = 0;
  std::vector<double> plan_s;  ///< Per algorithm.
  std::vector<double> sim_s;   ///< Per algorithm.
};

/// Serial replay of one pass with a span around every layer call. It
/// reproduces the sweep engine's shard decomposition and shard-order merge,
/// so its cells must match the engine's.
std::vector<PlatformOutput> traced_replay(const GridInputs& inputs, SpanLog& log,
                                         Replay& replay) {
  const std::size_t algos = inputs.algorithms.size();
  const std::size_t reps = inputs.options.repetitions;
  const std::size_t blocks = rumr::sweep::shards_per_site(reps, inputs.options.rep_block);
  const std::size_t rep_block = (reps + blocks - 1) / blocks;
  replay.plan_s.resize(algos, 0.0);
  replay.sim_s.resize(algos, 0.0);
  std::vector<PlatformOutput> outputs;
  const auto start = Clock::now();
  for (std::size_t p = 0; p < inputs.platforms.size(); ++p) {
    const SweepPlatform& site = inputs.platforms[p];
    const ScopedSpan platform(log, "platform", 0, p);
    PlatformOutput out;
    for (const double error : inputs.options.errors) {
      std::vector<std::vector<CellStats>> partials(blocks, std::vector<CellStats>(algos));
      std::vector<double> makespans(algos);
      for (std::size_t block = 0; block < blocks; ++block) {
        const std::size_t rep_end = std::min(reps, (block + 1) * rep_block);
        for (std::size_t rep = block * rep_block; rep < rep_end; ++rep) {
          const std::uint64_t seed =
              rumr::sweep::derive_rep_seed(inputs.options.base_seed, site.label, error, rep);
          for (std::size_t a = 0; a < algos; ++a) {
            const ScopedSpan run(log, "run", platform.id(), p);
            const rumr::sim::SimOptions sim_options =
                rumr::sim::SimOptions::with_error(error, seed);
            std::unique_ptr<rumr::sim::SchedulerPolicy> policy;
            {
              const ScopedSpan plan(log, "plan", run.id(), p);
              const auto t = Clock::now();
              policy = inputs.algorithms[a].make(site.platform, inputs.options.w_total, error);
              replay.plan_s[a] += seconds_since(t);
            }
            TimedPolicy timed(*policy);
            rumr::sim::SimResult sim_result;
            {
              ScopedSpan sim(log, "sim", run.id(), p);
              const auto t = Clock::now();
              sim_result = rumr::sim::simulate(site.platform, timed, sim_options);
              replay.sim_s[a] += seconds_since(t);
              sim.set_nested(timed.callback_ns());
            }
            {
              const ScopedSpan audit(log, "audit", run.id(), p);
              rumr::check::TraceAuditOptions audit_options;
              audit_options.work_tolerance = sim_options.work_tolerance;
              audit_options.uplink_channels = sim_options.uplink_channels;
              rumr::check::audit_sim_result(sim_result, site.platform, inputs.options.w_total,
                                            audit_options)
                  .throw_if_failed();
            }
            makespans[a] = sim_result.makespan;
            replay.events += sim_result.events;
            ++replay.runs;
            const rumr::obs::RunMetrics& m = sim_result.metrics;
            CellStats& cell = partials[block][a];
            cell.uplink_utilization.add(m.engine.uplink_utilization);
            cell.worker_utilization.add(m.engine.mean_worker_utilization);
            cell.events.add(static_cast<double>(m.des.events_executed));
            cell.hol_blocking_time.add(m.engine.hol_blocking_time);
            cell.work_redispatched.add(m.engine.work_redispatched);
          }
          for (std::size_t a = 0; a < algos; ++a) {
            CellStats& cell = partials[block][a];
            cell.makespan.add(makespans[a]);
            cell.makespan_quantiles.add(makespans[a]);
            ++cell.reps;
            if (makespans[0] < makespans[a]) ++cell.ref_wins;
            if (makespans[0] * 1.10 <= makespans[a]) ++cell.ref_wins_by_10pct;
          }
        }
      }
      {
        const ScopedSpan merge(log, "merge", platform.id(), p);
        for (std::size_t b = 1; b < blocks; ++b) {
          for (std::size_t a = 0; a < algos; ++a) partials[0][a].merge(partials[b][a]);
        }
      }
      ++replay.sites;
      for (std::size_t a = 0; a < algos; ++a) {
        const CellSummary s = summarize(partials[0][a]);
        out.events += s.events;
        out.cells.push_back(s);
      }
    }
    outputs.push_back(std::move(out));
  }
  replay.wall_s += seconds_since(start);
  ++replay.passes;
  return outputs;
}

bool same_cells(const PlatformOutput& a, const PlatformOutput& b) {
  if (a.cells.size() != b.cells.size() || a.events != b.events) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellSummary& x = a.cells[i];
    const CellSummary& y = b.cells[i];
    if (x.reps != y.reps || x.ref_wins != y.ref_wins ||
        x.ref_wins_by_10pct != y.ref_wins_by_10pct || x.events != y.events ||
        std::abs(x.makespan_mean - y.makespan_mean) > 1e-9 * std::max(1.0, y.makespan_mean)) {
      return false;
    }
  }
  return true;
}

void trace(const Options& options, bool zero_latency, Result& result) {
  const GridInputs inputs = make_inputs(zero_latency, options.seed);
  const std::vector<std::size_t> platforms = all_platforms(inputs);
  std::vector<PlatformOutput> parallel;
  std::vector<PlatformOutput> serial;
  // Whole-grid passes at N threads and at 1 thread, alternating; the
  // medians of five give the sweep speedup.
  constexpr int kReferencePasses = 5;
  std::vector<double> parallel_times;
  std::vector<double> serial_times;
  std::vector<PlatformOutput> repeated;
  bool repeat_ok = true;
  for (int i = 0; i < kReferencePasses; ++i) {
    parallel_times.push_back(
        sweep_pass(inputs, platforms, options.threads, i == 0 ? parallel : repeated));
    repeat_ok = repeat_ok && (i == 0 || same_digests(repeated, platforms, parallel));
    serial_times.push_back(sweep_pass(inputs, platforms, 1, i == 0 ? serial : repeated));
    repeat_ok = repeat_ok && (i == 0 || same_digests(repeated, platforms, parallel));
    result.attempted += 2;
  }
  result.check(repeat_ok, "cell digest changed between repeated passes of the same seed");
  const double parallel_s = quantile(parallel_times, 0.5);
  const double serial_s = quantile(serial_times, 0.5);
  result.check(same_digests(serial, platforms, parallel),
               "cell digest differs between 1 thread and N threads");

  // Traced serial replays of the same pass until the measuring time is used;
  // every replay must reproduce the engine's cells and event count.
  SpanLog log;
  Replay replay;
  std::uint64_t engine_events = 0;
  for (const PlatformOutput& out : parallel) engine_events += out.events;
  bool replay_ok = true;
  const auto replay_start = Clock::now();
  do {
    const std::uint64_t events_before = replay.events;
    const std::vector<PlatformOutput> outputs = traced_replay(inputs, log, replay);
    ++result.attempted;
    replay_ok = replay_ok && outputs.size() == parallel.size() &&
                replay.events - events_before == engine_events;
    for (std::size_t p = 0; replay_ok && p < parallel.size(); ++p) {
      replay_ok = same_cells(outputs[p], parallel[p]);
    }
  } while (seconds_since(replay_start) < options.seconds);
  result.check(replay_ok,
               "traced serial replay disagrees with the sweep engine's cells or event count");

  // Self-check of the counts: the same seed repeats the first platform's
  // digest and events exactly; another seed changes its digest.
  std::vector<PlatformOutput> again;
  std::vector<PlatformOutput> other;
  (void)sweep_pass(inputs, {0}, options.threads, again);
  (void)sweep_pass(make_inputs(zero_latency, options.seed + 1), {0}, options.threads, other);
  result.attempted += 2;
  result.check(again[0].digest == parallel[0].digest && again[0].events == parallel[0].events,
               "first platform's digest or event count did not repeat under the same seed");
  result.check(other[0].digest != parallel[0].digest,
               "first platform's digest did not change under a different seed");

  if (!options.trace_path.empty() && !log.write(options.trace_path)) {
    result.problems.push_back("could not write the span log to " + options.trace_path);
  }

  const double runs = static_cast<double>(replay.runs);
  const double plan_s = log.seconds("plan");
  const double sim_s = log.seconds("sim");
  const double policy_s = static_cast<double>(log.total("sim").nested_ns) * 1e-9;
  const double audit_s = log.seconds("audit");
  const double merge_s = log.seconds("merge");
  std::cerr << "perfbench: " << options.workload << " replay " << replay.wall_s << " s, "
            << replay.passes << " passes; 1-thread pass " << serial_s << " s; " << options.threads
            << "-thread pass " << parallel_s << " s\n";

  result.metric("plan.us_per_run", plan_s / runs * 1e6, "us");
  result.metric("plan.share", plan_s / replay.wall_s, "fraction");
  result.metric("sim.us_per_run", sim_s / runs * 1e6, "us");
  result.metric("sim.share", sim_s / replay.wall_s, "fraction");
  result.metric("sim.policy_us_per_run", policy_s / runs * 1e6, "us");
  result.metric("sim.engine_self_us_per_run", (sim_s - policy_s) / runs * 1e6, "us");
  result.metric("audit.us_per_run", audit_s / runs * 1e6, "us");
  result.metric("audit.share", audit_s / replay.wall_s, "fraction");
  result.metric("des.events_per_run", static_cast<double>(replay.events) / runs, "count");
  result.metric("des.events_per_s", static_cast<double>(replay.events) / sim_s, "1/s");
  result.metric("merge.us_per_site", merge_s / static_cast<double>(replay.sites) * 1e6, "us");
  result.metric("sweep.speedup", serial_s / parallel_s, "ratio");
  result.metric("sweep.parallel_efficiency",
                serial_s / parallel_s / static_cast<double>(options.threads), "fraction");
  result.metric("trace.overhead_frac",
                replay.wall_s / static_cast<double>(replay.passes) / serial_s - 1.0, "fraction");
  const double runs_per_algo = runs / static_cast<double>(inputs.algorithms.size());
  for (std::size_t a = 0; a < inputs.algorithms.size(); ++a) {
    result.metric("plan.us_per_run." + inputs.algorithms[a].name,
                  replay.plan_s[a] / runs_per_algo * 1e6, "us");
    result.metric("sim.us_per_run." + inputs.algorithms[a].name,
                  replay.sim_s[a] / runs_per_algo * 1e6, "us");
  }
  add_unexercised_serve_metrics(result);
}

}  // namespace

void run_grid_workload(const Options& options, bool zero_latency, Result& result) {
  if (options.trace) {
    trace(options, zero_latency, result);
  } else {
    measure(options, zero_latency, result);
  }
}

}  // namespace perfbench
