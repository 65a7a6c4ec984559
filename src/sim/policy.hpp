#pragma once

/// \file policy.hpp
/// Scheduler-policy interface for the master-worker simulation engine.
///
/// A policy is the master's brain: whenever the master's uplink is free the
/// engine asks the policy for the next (worker, chunk) dispatch. Policies see
/// only master-observable state — outstanding chunk counts, completion
/// notifications, and *predicted* (model-based) timings — never the
/// simulator's perturbed ground truth, so every algorithm competes under the
/// same information constraints the paper assumes.

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "des/simulator.hpp"
#include "platform/platform.hpp"

namespace rumr::sim {

/// A single work assignment: send `chunk` workload units to `worker`.
struct Dispatch {
  std::size_t worker = 0;
  double chunk = 0.0;
};

/// Master-visible view of one worker's state.
struct WorkerStatus {
  /// Chunks dispatched to this worker and not yet reported complete.
  std::size_t outstanding = 0;
  /// Master-side *prediction* of when this worker next becomes idle, based on
  /// the platform model and completion notifications received so far.
  des::SimTime predicted_ready = 0.0;
  /// Workload units this worker has reported complete.
  double completed_work = 0.0;
  /// Number of chunks this worker has reported complete.
  std::size_t completed_chunks = 0;
  /// Time of the most recent completion notification (0 if none yet).
  des::SimTime last_completion = 0.0;
  /// Master belief: the worker is reachable and may be dispatched to. Becomes
  /// false when a completion-timeout fires (the master fences the worker and
  /// reclaims its outstanding chunks) and true again when the worker rejoins
  /// after its blacklist backoff. Always true when faults are disabled.
  /// Policies must not dispatch to a worker whose `alive` is false.
  bool alive = true;
  /// The worker has been fenced at least once this run (a flapper/dead flag
  /// policies may use to deprioritize it even after a rejoin).
  bool suspected = false;
  /// Number of times the master's completion-timeout fenced this worker.
  std::size_t suspicions = 0;
};

/// Completion notification passed to SchedulerPolicy::on_chunk_completed.
struct CompletionInfo {
  std::size_t worker = 0;
  double chunk = 0.0;
  /// Model-predicted computation time for this chunk (Eq. 1).
  double predicted_comp = 0.0;
  /// Observed computation time (workers self-report timing; this is how the
  /// adaptive variant estimates the prediction-error magnitude on-line).
  double actual_comp = 0.0;
  des::SimTime time = 0.0;
};

/// Read-only master state handed to policies.
class MasterContext {
 public:
  virtual ~MasterContext() = default;
  [[nodiscard]] virtual des::SimTime now() const = 0;
  [[nodiscard]] virtual const platform::StarPlatform& platform() const = 0;
  [[nodiscard]] virtual std::size_t num_workers() const = 0;
  [[nodiscard]] virtual const WorkerStatus& worker_status(std::size_t i) const = 0;
  /// True when worker i has a free receive buffer slot: a send to it would
  /// start immediately instead of blocking the uplink (rendezvous).
  [[nodiscard]] virtual bool can_receive(std::size_t i) const = 0;
  /// The master's request queue: every worker whose status is alive with no
  /// outstanding chunk, ordered by (last_completion, worker index), so the
  /// longest-idle worker comes first. Valid until the next dispatch.
  [[nodiscard]] virtual std::span<const std::size_t> idle_workers() const = 0;
};

/// Interface every scheduling algorithm implements.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// Short algorithm name ("RUMR", "UMR", "MI-3", ...), used in reports.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called whenever the uplink is free (initially, when a send finishes, and
  /// after each completion notification). Return the next dispatch, or
  /// nullopt to wait for more completions before sending anything.
  virtual std::optional<Dispatch> next_dispatch(const MasterContext& ctx) = 0;

  /// Completion notification hook (optional).
  virtual void on_chunk_completed(const MasterContext& ctx, const CompletionInfo& info) {
    (void)ctx;
    (void)info;
  }

  /// The master fenced `worker` (completion-timeout: it is presumed lost, its
  /// outstanding chunks were reclaimed into the master's re-dispatch pool,
  /// and worker_status(worker).alive is now false). Optional hook; policies
  /// that precompute per-worker shares can rebalance here.
  virtual void on_worker_down(const MasterContext& ctx, std::size_t worker) {
    (void)ctx;
    (void)worker;
  }

  /// A previously fenced `worker` rejoined after its backoff (alive again,
  /// with an empty queue). Optional hook.
  virtual void on_worker_up(const MasterContext& ctx, std::size_t worker) {
    (void)ctx;
    (void)worker;
  }

  /// When next_dispatch returned nullopt because the policy is waiting for a
  /// *time* (not an event), this returns that time so the engine can poll
  /// again then. Timetable-driven policies (a precalculated UMR schedule
  /// executing its planned send times) use this; event-driven policies leave
  /// the default.
  [[nodiscard]] virtual std::optional<des::SimTime> next_poll_time() const {
    return std::nullopt;
  }

  /// True once the policy has dispatched its entire workload. A policy that
  /// returns nullopt from next_dispatch while unfinished must become willing
  /// to dispatch again after some future completion, or the engine reports a
  /// deadlock.
  [[nodiscard]] virtual bool finished() const = 0;

  /// Total workload this policy is responsible for dispatching; the engine
  /// checks conservation against the sum of dispatched chunks.
  [[nodiscard]] virtual double total_work() const = 0;
};

}  // namespace rumr::sim
