#pragma once

/// \file golden.hpp
/// Golden-result regression scenarios: the paper-figure configurations
/// (UMR / RUMR / Factoring / MI-2 / WF on homogeneous and heterogeneous
/// platforms, plus a scripted-fault case, and the self-scheduling family at
/// zero latency) reduced to per-run fingerprints
/// that are recorded once (tools/golden_record) into tests/golden/*.json and
/// replayed by the regression suite (tests/test_golden.cpp).
///
/// The fingerprint is everything a kernel or engine rewrite could silently
/// drift: makespan, chunk/event counts, dispatched work, uplink occupancy,
/// and the fault-layer re-dispatch ledger. Scenario definitions live here —
/// in one place — so the recorder and the replayer can never disagree about
/// what a scenario means.

#include <cstdint>
#include <string>
#include <vector>

namespace rumr::sweep::golden {

/// One algorithm's recorded fingerprint within a scenario.
struct GoldenCase {
  std::string algorithm;
  double makespan = 0.0;
  double work_dispatched = 0.0;
  double uplink_busy_time = 0.0;  ///< Serialized transfer time (engine.uplink_transfer_time).
  std::uint64_t chunks = 0;
  std::uint64_t events = 0;
  std::uint64_t chunks_redispatched = 0;  ///< Nonzero only in fault scenarios.
};

/// One platform/workload/seed configuration and its recorded cases.
struct GoldenScenario {
  std::string name;
  double w_total = 0.0;
  double error = 0.0;
  std::uint64_t seed = 0;
  std::vector<GoldenCase> cases;
};

/// Names of every defined scenario, in fixture-file order. Fixture files are
/// named `<name>.json`.
[[nodiscard]] std::vector<std::string> scenario_names();

/// Runs every algorithm of scenario `name` right now and returns the fresh
/// fingerprints. Throws std::invalid_argument for an unknown name. Every run
/// is passed through check::audit_sim_result first — a run that fails its
/// own invariant audit must never become (or be compared against) a golden
/// record.
[[nodiscard]] GoldenScenario record_scenario(const std::string& name);

/// Serializes a scenario as the fixture-file JSON (full double precision).
[[nodiscard]] std::string to_json(const GoldenScenario& scenario);

/// Parses a fixture file produced by to_json(). Throws std::runtime_error on
/// malformed input.
[[nodiscard]] GoldenScenario from_json(const std::string& text);

/// Compares a fresh replay against the recorded fixture. Doubles must agree
/// to `rel_tol` relative tolerance (the replay of a deterministic simulation
/// should in fact be bit-identical; the tolerance only keeps the diff
/// readable if it is not), counts must agree exactly. Returns one
/// human-readable line per mismatch; empty means identical.
[[nodiscard]] std::vector<std::string> compare(const GoldenScenario& expected,
                                               const GoldenScenario& fresh,
                                               double rel_tol = 1e-12);

}  // namespace rumr::sweep::golden
