#pragma once

/// \file master_worker.hpp
/// Master-worker execution engine on a star platform.
///
/// Semantics (paper section 3.1, Figure 2):
///   - The master's uplink is a serial resource: at most one transfer's
///     `nLat + chunk/B` portion occupies it at a time; the `tLat` tail
///     overlaps with subsequent transfers.
///   - Workers have a front end: they can receive a chunk while computing
///     another. Chunks queue FIFO at the worker.
///   - Every transfer and every computation duration is perturbed by the
///     prediction-error model (section 4.1): actual = predicted * ratio,
///     ratio ~ N(1, error) truncated positive (or its uniform variant).
///
/// The engine polls the SchedulerPolicy whenever the uplink is free and after
/// every completion notification, so both precomputed-schedule policies
/// (UMR, MI-x) and greedy self-scheduling policies (Factoring, FSC, RUMR
/// phase 2) run under identical mechanics.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_model.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "sim/policy.hpp"
#include "sim/trace.hpp"
#include "stats/error_process.hpp"

namespace rumr::sim {

/// Thrown when a policy misbehaves (invalid dispatch, deadlock, or work
/// non-conservation).
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Engine configuration.
struct SimOptions {
  /// Perturbation applied to transfers. Accepts a plain ErrorModel
  /// (stationary, the paper's setting) or a full ErrorProcessSpec
  /// (random-walk / burst dynamics — the paper's future-work models).
  stats::ErrorProcessSpec comm_error{};
  /// Perturbation applied to computations (same contract).
  stats::ErrorProcessSpec comp_error{};
  std::uint64_t seed = 1;          ///< RNG seed; same seed => identical run.
  bool record_trace = false;       ///< Record a Gantt trace (costs memory).
  double work_tolerance = 1e-6;    ///< Relative conservation-check tolerance.

  /// Number of master uplink channels that can carry the serialized
  /// (nLat + chunk/B) part of transfers simultaneously. 1 is the paper's
  /// model ("the master does not send chunks to workers simultaneously");
  /// higher values model the simultaneous-transfer variant the paper
  /// sketches as future work for WAN settings.
  std::size_t uplink_channels = 1;

  /// Output-data model: after computing a chunk, the worker returns
  /// output_ratio * chunk units of result data to the master over a shared
  /// serialized downlink (duration nLat_i + out/B_i + tLat_i). 0 restores
  /// the paper's input-only model; the makespan then includes the arrival of
  /// the last output (cf. the one-round output-aware treatments [11, 12]
  /// cited in section 3.1).
  double output_ratio = 0.0;

  /// How many received-but-not-yet-computing chunks a worker can hold.
  /// 1 models the classic double-buffered front-end — the worker posts one
  /// receive while computing (paper's "with front-end" model [21]); a send
  /// to a worker whose buffer is full blocks the master's uplink until the
  /// worker frees the slot (rendezvous semantics), creating the head-of-line
  /// blocking that makes precalculated schedules fragile under prediction
  /// error. SIZE_MAX gives infinitely deep buffers (no blocking), an
  /// idealization benchmarked in the ablation suite.
  std::size_t worker_buffer_capacity = 1;

  /// Worker-availability fault model. Defaults to FaultKind::kNone, in which
  /// case the fault layer adds zero events and zero RNG draws — runs are
  /// byte-identical to a build without the subsystem.
  faults::FaultSpec faults{};

  /// Link (channel) fault model: message loss, bandwidth-degradation windows,
  /// latency spikes. Inert by default; when enabled the engine arms the same
  /// lease/watchdog recovery machinery the worker-fault layer uses, and all
  /// link randomness comes from dedicated per-worker lanes — the engine's own
  /// RNG consumption is untouched, so runs with the link layer disabled stay
  /// byte-identical to builds without it.
  faults::LinkFaultSpec link{};

  /// Master-side failure-detection and re-admission knobs (used only when
  /// `faults` or `link` is enabled).
  struct FaultToleranceOptions {
    /// The master declares a worker lost when a chunk's completion is overdue
    /// by `timeout_slack` times its predicted remaining duration. Must be
    /// > 1; larger values tolerate more prediction error before fencing but
    /// detect real failures later. With the retransmit protocol enabled this
    /// fixed multiplier is only the bootstrap: once a worker has completion
    /// history, an adaptive EWMA + variance estimate of its observed
    /// round-trip inflation replaces it (RFC6298-style).
    double timeout_slack = 4.0;
    /// Blacklist duration after the k-th fencing of a worker:
    /// min(backoff_max, backoff_base * backoff_factor^(k-1)) seconds.
    double backoff_base = 1.0;
    double backoff_factor = 4.0;
    double backoff_max = 1024.0;
  } fault_tolerance{};

  /// Opt-in ACK/timeout/retransmit protocol for chunk payloads. Without it,
  /// a lost payload is recovered only by the (slow) completion-timeout fence;
  /// with it, the master arms a per-delivery retransmission timer from an
  /// RFC6298 estimator (SRTT/RTTVAR over observed payload->ACK round trips,
  /// Karn's rule: no samples from retransmitted deliveries, exponential
  /// backoff per retry) and re-sends just the undelivered payload. Duplicate
  /// deliveries are suppressed at the worker by lease id; suppression state
  /// survives worker crashes (stable storage) so a chunk is never computed
  /// twice. Exhausting max_retries fences the worker.
  struct RetransmitOptions {
    bool enabled = false;
    double alpha = 0.125;           ///< SRTT gain (RFC6298).
    double beta = 0.25;             ///< RTTVAR gain (RFC6298).
    double k = 4.0;                 ///< RTO = SRTT + k * RTTVAR.
    double rto_min = 1e-3;          ///< Floor on the retransmission timeout, s.
    /// Before the first RTT sample: RTO = rto_initial_factor * predicted
    /// round trip of this delivery.
    double rto_initial_factor = 3.0;
    std::size_t max_retries = 8;    ///< Send attempts per delivery before fencing.
  } retransmit{};

  /// Event budget for the run; 0 uses the DES kernel's own runaway guard
  /// (des::Simulator::kDefaultMaxEvents). When the budget is exhausted with
  /// events still pending the engine raises SimError instead of spinning —
  /// chaos campaigns set a small budget so a livelocked fault scenario (e.g.
  /// crashes arriving faster than any chunk can complete) becomes a named,
  /// reproducible failure rather than a hung process.
  std::size_t max_events = 0;

  /// Partial-work checkpointing: every `interval` simulated seconds of
  /// computation a worker banks the fraction of its current chunk completed
  /// so far. When the computation is later aborted (crash or fence) only the
  /// unbanked remainder is reclaimed and re-dispatched; the banked work is
  /// final. 0 disables banking (a reclaimed chunk is re-sent from byte
  /// zero, the pre-checkpoint behavior).
  struct CheckpointOptions {
    double interval = 0.0;
  } checkpoint{};

  /// Convenience: same error level on both resources with the paper's
  /// truncated-normal model.
  [[nodiscard]] static SimOptions with_error(double error, std::uint64_t seed = 1) {
    SimOptions o;
    o.comm_error = stats::ErrorModel::truncated_normal(error);
    o.comp_error = stats::ErrorModel::truncated_normal(error);
    o.seed = seed;
    return o;
  }

  /// Validates every option in one pass and returns the full list of
  /// human-readable problems (empty means the options are usable). simulate()
  /// calls this once at run start and raises SimError with all of them — no
  /// scattered ad-hoc throws, and a caller can pre-flight options without
  /// paying for a run.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Per-worker outcome statistics.
struct WorkerOutcome {
  double work = 0.0;        ///< Workload units computed.
  std::size_t chunks = 0;   ///< Chunks computed.
  double busy_time = 0.0;   ///< Total time spent computing.
  double first_start = 0.0; ///< When the first computation began.
  double last_end = 0.0;    ///< When the last computation finished.
};

/// Result of a simulated run. The run's counters (dispatches, work moved,
/// link time, fault ledger, utilization) live in one place: `metrics`.
struct SimResult {
  /// Completion time of the last chunk (or of the last output transfer when
  /// the output-data model is enabled).
  double makespan = 0.0;
  std::size_t events = 0;             ///< DES events executed.
  std::vector<WorkerOutcome> workers;
  /// Always-on observability record: DES kernel stats, uplink/worker time
  /// accounting, fault counters. Collection adds zero RNG draws and O(1)
  /// work per event; check::audit_sim_result verifies its identities
  /// (uplink busy + idle == makespan; per-worker spans tile the run).
  obs::RunMetrics metrics;
  Trace trace;                        ///< Populated iff record_trace.
};

/// Runs one policy to completion on one platform.
///
/// Throws SimError if the policy emits an invalid dispatch, deadlocks
/// (unfinished with no pending events), or fails work conservation. With
/// faults enabled the run degrades gracefully — lost chunks are re-dispatched
/// to survivors — and SimError is raised only when work remains but every
/// worker is dead or unreachable.
[[nodiscard]] SimResult simulate(const platform::StarPlatform& platform, SchedulerPolicy& policy,
                                 const SimOptions& options);

}  // namespace rumr::sim
