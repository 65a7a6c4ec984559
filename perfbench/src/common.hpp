#pragma once

/// \file common.hpp
/// Shared plumbing for the benchmark program: options, the result record,
/// order statistics, a seeded input generator, and the in-memory span log the
/// traced pass writes out at the end.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/policy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::int64_t nanos_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< Sweep / server threads: CPUs in the affinity mask.
  std::string trace_path;   ///< Where the traced pass writes its spans.
};

/// What one benchmark invocation reports. `problems` lists every failed
/// output check; the run is correct iff it is empty.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;

  void metric(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name), std::make_pair(value, std::move(unit)));
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// Linear-interpolation quantile (q in [0, 1]) of a sample. Sorts `values`
/// in place rather than copying, so a large sample adds nothing to peak RSS.
[[nodiscard]] double quantile(std::vector<double>& values, double q);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Returns freed heap memory to the system and restarts the peak resident
/// set from the current one, so that peak_rss_mb() covers only what follows.
/// Warns on standard error when the kernel refuses the reset.
void reset_peak_rss();

/// Set-ups per untraced run. The first runs before anything is timed and the
/// others are spread evenly over the measuring window, so that the reported
/// median does not rest on one moment of the machine's load.
inline constexpr std::size_t kSetups = 5;

/// True when the next set-up is due, `elapsed_s` into a `window_s` window.
[[nodiscard]] inline bool setup_due(std::size_t done, double elapsed_s, double window_s) {
  return done < kSetups &&
         elapsed_s >= window_s * static_cast<double>(done) / static_cast<double>(kSetups);
}

/// splitmix64 stream: the benchmark's own input generator, so generated
/// inputs depend only on the seed and never on the library's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  [[nodiscard]] std::uint64_t next();
  [[nodiscard]] double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  [[nodiscard]] std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Stateless mix of several values into one seed (splitmix64 finalizer).
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0);

/// FNV-1a 64 accumulator for output digests.
class Digest {
 public:
  void bytes(std::string_view data);
  void u64(std::uint64_t value);
  void f64(double value);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// In-memory span log for the traced pass. A span records a layer call: its
/// name, the span that caused it, the request it belongs to, start and end,
/// and the time spent in nested callbacks that are folded into it rather
/// than logged one by one (the policy callbacks inside a simulation). Totals
/// per name are kept for every span; individual spans are kept up to a cap
/// and written out when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    std::string_view name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root.
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t nested_ns = 0;
  };
  struct Total {
    std::uint64_t count = 0;
    std::int64_t ns = 0;
    std::int64_t nested_ns = 0;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Records the opening of a span that started at `start` and returns its
  /// id (ids start at 1; 0 means the span was not kept because the log is
  /// full — its time still reaches the totals).
  [[nodiscard]] std::uint32_t open(std::string_view name, std::uint32_t parent,
                                   std::uint64_t request, Clock::time_point start);
  /// Closes a span: adds it to the totals of `name` and, when kept, stores
  /// its end and the time attributed to folded-in callbacks.
  void close(std::uint32_t id, std::string_view name, Clock::time_point start,
             Clock::time_point end, std::int64_t nested_ns);

  [[nodiscard]] Total total(std::string_view name) const;
  [[nodiscard]] double seconds(std::string_view name) const {
    return static_cast<double>(total(name).ns) * 1e-9;
  }
  /// Writes the kept spans as one JSON document; returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxKept = 1u << 17;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, Total, std::less<>> totals_;
  std::uint64_t dropped_ = 0;
};

/// RAII span around one call into a layer. `name` must outlive the log
/// (string literals do).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, std::uint32_t parent = 0,
             std::uint64_t request = 0)
      : log_(log), name_(name), start_(Clock::now()), id_(log.open(name, parent, request, start_)) {}
  ~ScopedSpan() { log_.close(id_, name_, start_, Clock::now(), nested_ns_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  void set_nested(std::int64_t ns) noexcept { nested_ns_ = ns; }

 private:
  SpanLog& log_;
  std::string_view name_;
  Clock::time_point start_;
  std::uint32_t id_;
  std::int64_t nested_ns_ = 0;
};

/// Forwarding SchedulerPolicy that times the policy callbacks the engine
/// makes during one simulation, so simulate() time splits into policy time
/// and engine self time. It changes no decision: every call forwards.
class TimedPolicy final : public rumr::sim::SchedulerPolicy {
 public:
  explicit TimedPolicy(rumr::sim::SchedulerPolicy& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  std::optional<rumr::sim::Dispatch> next_dispatch(const rumr::sim::MasterContext& ctx) override;
  void on_chunk_completed(const rumr::sim::MasterContext& ctx,
                          const rumr::sim::CompletionInfo& info) override;
  void on_worker_down(const rumr::sim::MasterContext& ctx, std::size_t worker) override;
  void on_worker_up(const rumr::sim::MasterContext& ctx, std::size_t worker) override;
  [[nodiscard]] std::optional<rumr::des::SimTime> next_poll_time() const override;
  [[nodiscard]] bool finished() const override { return inner_.finished(); }
  [[nodiscard]] double total_work() const override { return inner_.total_work(); }

  [[nodiscard]] std::int64_t callback_ns() const noexcept { return ns_; }

 private:
  rumr::sim::SchedulerPolicy& inner_;
  mutable std::int64_t ns_ = 0;
};

/// Workload entry points. Each fills `result` with the end-to-end metrics
/// (untraced) or the per-layer metrics (traced) and the output checks.
void run_grid_workload(const Options& options, bool zero_latency, Result& result);
void run_serve_workload(const Options& options, Result& result);

/// The serve-layer metrics, reported as 0 by the workloads that never reach
/// the serve layer so every traced run prints the same metric names.
void add_unexercised_serve_metrics(Result& result);

}  // namespace perfbench
