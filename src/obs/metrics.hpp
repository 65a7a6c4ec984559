#pragma once

/// \file metrics.hpp
/// Observability primitives and the per-run metrics record.
///
/// Every simulated run produces a RunMetrics: DES kernel statistics (event
/// throughput, queue depth), engine statistics (where uplink and worker time
/// went), and fault-layer statistics. Collection is always on — it adds zero
/// RNG draws and O(1) work per event, so instrumented runs are byte-identical
/// to uninstrumented ones (the determinism harness enforces this).
///
/// The primitives are deliberately minimal:
///
///   Counter    monotonically increasing event count
///   Gauge      last-value-wins sample with a high-water mark
///   Histogram  fixed-bucket distribution (bucket edges chosen up front, so
///              recording is O(#buckets) worst case and allocation-free)
///
/// The identities the numbers must satisfy (uplink busy + idle == makespan;
/// per-worker compute + aborted + idle + down == makespan) are audited by
/// check::audit_sim_result, so a bookkeeping bug here is caught, not trusted.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rumr::obs {

/// Monotonically increasing count of occurrences.
class Counter {
 public:
  void increment(std::uint64_t by = 1) noexcept { value_ += by; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

  /// Folds another counter in. Integer addition — exactly associative and
  /// commutative, so sharded aggregation (obs/accumulators.hpp) can reduce
  /// counters in any order.
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-observed value plus the largest value ever observed.
class Gauge {
 public:
  void set(double v) noexcept {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] double high_water() const noexcept { return high_water_; }

 private:
  double value_ = 0.0;
  double high_water_ = 0.0;
};

/// Fixed-bucket histogram. Bucket i counts samples in (edge[i-1], edge[i]];
/// samples above the last edge land in the overflow bucket. Edges are fixed
/// at construction, so add() never allocates.
class Histogram {
 public:
  Histogram() = default;

  /// Buckets with the given ascending upper edges (plus an overflow bucket).
  explicit Histogram(std::vector<double> upper_edges);

  /// `count` buckets whose upper edges grow geometrically from `first_edge`
  /// by `factor` (e.g. 1, 2, 4, 8, ... for factor 2).
  [[nodiscard]] static Histogram exponential(double first_edge, double factor,
                                             std::size_t count);

  void add(double sample) noexcept;

  /// Folds another histogram with identical upper edges into this one
  /// (throws std::invalid_argument on an edge mismatch). Bucket counts and
  /// totals are integers, so the merge is exactly associative/commutative;
  /// sum is FP-exact up to addition order, which is why the sharded sweep
  /// engine merges shards in a fixed order. A default-constructed (edgeless,
  /// empty) histogram adopts the other side's edges, so zero-value partials
  /// merge cleanly.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return total_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return total_ > 0 ? max_ : 0.0; }

  /// Upper edges (size == bucket_counts().size() - 1; the final bucket is
  /// the overflow bucket, unbounded above).
  [[nodiscard]] const std::vector<double>& upper_edges() const noexcept { return edges_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// DES kernel statistics for one run.
struct DesStats {
  std::size_t events_scheduled = 0;
  std::size_t events_executed = 0;
  std::size_t events_cancelled = 0;
  /// Largest number of simultaneously pending (scheduled, not yet executed or
  /// cancelled) events.
  std::size_t queue_depth_high_water = 0;
};

/// Where one worker's time went, partitioned over [0, makespan]:
/// compute + aborted + idle + down == makespan (audited identity).
struct WorkerSpans {
  double compute_time = 0.0;  ///< Completed computations.
  double aborted_time = 0.0;  ///< Computations cut short (failure or fence).
  double idle_time = 0.0;     ///< Up, reachable, not computing.
  double down_time = 0.0;     ///< Ground-truth outage intervals.
  double receive_time = 0.0;  ///< Receiving chunks (overlaps compute; not in the identity).
  std::size_t dispatches = 0;   ///< Chunks sent toward this worker.
  std::size_t completions = 0;  ///< Chunks it reported complete.
};

/// Master/engine statistics for one run.
struct EngineStats {
  /// Occupancy accounting for the master uplink: busy counts time when at
  /// least one channel carries a serialized transfer or holds a blocked
  /// (rendezvous) send; idle is the complement. busy + idle == makespan.
  double uplink_busy_time = 0.0;
  double uplink_idle_time = 0.0;
  /// uplink_busy_time / makespan (0 for a zero-length run).
  double uplink_utilization = 0.0;
  /// Sum of serialized transfer durations (the classic per-transfer total;
  /// can exceed makespan when uplink_channels > 1).
  double uplink_transfer_time = 0.0;
  double downlink_busy_time = 0.0;
  /// Time a blocked rendezvous send held an uplink channel while its target
  /// worker had no free buffer slot (head-of-line blocking).
  double hol_blocking_time = 0.0;
  std::size_t dispatches = 0;   ///< Chunk sends, re-dispatches included.
  std::size_t completions = 0;
  std::size_t redispatches = 0;
  double work_dispatched = 0.0;    ///< Workload units sent, re-dispatches included.
  double work_redispatched = 0.0;  ///< Workload units sent again after a fence.
  /// Mean over workers of compute_time / makespan.
  double mean_worker_utilization = 0.0;
  std::vector<WorkerSpans> workers;
  Histogram chunk_sizes;        ///< Dispatched chunk sizes (workload units).
  Histogram compute_durations;  ///< Actual (perturbed) computation durations.
  /// Completion-watchdog windows armed (seconds of allowed lateness). Empty
  /// unless a fault layer is enabled.
  Histogram timeout_windows;
  /// Retransmission timeouts armed by the ACK protocol (RFC6298 RTO values,
  /// seconds). Empty unless retransmit is enabled.
  Histogram rto_values;
};

/// Fault-layer statistics for one run (all zero when faults are disabled).
struct FaultStats {
  std::size_t failures = 0;          ///< Ground-truth down transitions.
  std::size_t recoveries = 0;        ///< Ground-truth up transitions.
  std::size_t fencings = 0;          ///< Completion-timeouts fired.
  std::size_t false_suspicions = 0;  ///< Fencings of a worker that was actually up.
  std::size_t backoff_retries = 0;   ///< Rejoin attempts scheduled after a fence.
  std::size_t rejoins = 0;           ///< Fenced workers re-admitted.
  std::size_t chunks_lost = 0;          ///< Dispatched chunks reclaimed from fenced workers.
  double work_lost = 0.0;               ///< Workload units in those chunks (not exported).
  std::size_t chunks_redispatched = 0;  ///< Reclaimed chunks sent again.

  // Link-fault / retransmit-protocol counters (zero when those layers are off).
  std::size_t messages_lost = 0;   ///< Payloads and ACKs dropped in the network.
  std::size_t latency_spikes = 0;  ///< Messages delayed by a latency spike.
  std::size_t degraded_sends = 0;  ///< Payload sends inside a degradation window.
  std::size_t retransmits = 0;     ///< Chunk payloads re-sent by the protocol.
  double work_retransmitted = 0.0; ///< Workload units in those re-sends.
  std::size_t duplicates_suppressed = 0;  ///< Duplicate deliveries dropped by lease id.

  // Partial-work checkpointing counters (zero when checkpoint.interval == 0).
  std::size_t checkpoints_banked = 0;  ///< Aborted computations that banked progress.
  double work_banked = 0.0;            ///< Workload units banked (never recomputed).
};

/// The full per-run metrics record carried on sim::SimResult: the one
/// ledger of a run's counters.
struct RunMetrics {
  double makespan = 0.0;
  DesStats des;
  EngineStats engine;
  FaultStats faults;
};

/// Service-level statistics for one open-system (multi-job) run, carried on
/// jobs::ServiceResult. Counters cover the admission ledger; the histograms
/// hold the per-job service metrics the sharing-policy comparisons plot.
/// check::audit_service_result cross-checks every total against the per-job
/// records.
struct JobsStats {
  std::size_t arrived = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t completed = 0;
  Histogram response_times;  ///< departure - arrival, completed jobs.
  Histogram slowdowns;       ///< response / best-alone service bound.
  Histogram queue_waits;     ///< service start - arrival, completed jobs.
  Histogram job_sizes;       ///< Workload units of every arrived job.
};

/// Content-addressed cache accounting (the serve plan cache). Counters obey
/// the identities check::audit_serve_stats enforces:
///
///   hits + misses == lookups
///   misses == insertions + collisions + failed_solves
///   entries + evictions == insertions
///
/// A *hit* is a lookup that found the key resident or in flight (a waiter on
/// an in-flight solve is a hit: the solve runs exactly once per key). A
/// *miss* runs the solver exactly once and installs exactly one entry —
/// unless the 64-bit FNV-1a fingerprint collided with a different canonical
/// key (solved uncached, counted in `collisions`) or the solver threw
/// (nothing installed, counted in `failed_solves`). A zero-capacity cache
/// still inserts and immediately evicts, so the identities hold in
/// pass-through mode too.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t collisions = 0;    ///< Fingerprint collisions (solved uncached).
  std::uint64_t failed_solves = 0; ///< Solver threw; no entry was installed.
  std::uint64_t entries = 0;       ///< Currently resident entries.
  std::uint64_t bytes_cached = 0;  ///< Currently resident payload + key bytes.

  /// Folds another shard's counters in (exact integer addition).
  void merge(const CacheStats& other) noexcept;
};

/// Admission and execution ledger for one serve session (the what-if
/// server). Request-level counters follow the jobs-layer vocabulary: every
/// received request ends in exactly one of {admitted, rejected, shed} —
/// audited as admitted + rejected + shed == received — and completed counts
/// admitted requests whose response was produced (== admitted once the
/// session drains). Query-level counters split each batch into its queries.
struct ServeStats {
  // Request (frame) admission ledger.
  std::uint64_t received = 0;
  std::uint64_t admitted = 0;   ///< Dispatched to a worker.
  std::uint64_t rejected = 0;   ///< Turned away at a full queue (reject-new).
  std::uint64_t shed = 0;       ///< Dropped from the queue unserved (shed-oldest).
  std::uint64_t completed = 0;  ///< Responses produced for admitted requests.
  std::uint64_t queue_depth_high_water = 0;  ///< Largest pending-queue size.

  // Query execution ledger (a batch request carries many queries).
  std::uint64_t queries = 0;        ///< Queries received inside admitted requests.
  std::uint64_t query_errors = 0;   ///< Queries rejected before solving (bad input).
  std::uint64_t solves = 0;         ///< Cold solves actually executed.
  std::uint64_t protocol_errors = 0;  ///< Requests whose payload failed to parse.

  /// Plan-cache accounting. queries - query_errors == plan_cache.lookups
  /// (every well-formed query is exactly one cache lookup).
  CacheStats plan_cache;
};

/// Serializes a RunMetrics as a single JSON object (stable key order, full
/// precision, non-finite values as null — valid JSON always).
[[nodiscard]] std::string to_json(const RunMetrics& metrics);

/// Serializes a ServeStats the same way.
[[nodiscard]] std::string to_json(const ServeStats& stats);

/// Serializes a JobsStats the same way.
[[nodiscard]] std::string to_json(const JobsStats& stats);

/// Writes a RunMetrics as long-form `metric,value` CSV rows with a header.
/// Per-worker metrics are emitted as `worker<i>.<metric>`.
void write_csv(std::ostream& out, const RunMetrics& metrics);

/// Same, to a string.
[[nodiscard]] std::string to_csv(const RunMetrics& metrics);

}  // namespace rumr::obs
