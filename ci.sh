#!/usr/bin/env bash
# CI driver: builds and tests every correctness configuration.
#
#   ./ci.sh            all stages
#   ./ci.sh release    one stage: release | asan-ubsan | tsan | tidy | lint |
#                      chaos | serve | perf
#
# Stages (each uses the matching CMakePresets.json preset, building into
# build/<preset>; every preset sets RUMR_WARNINGS_AS_ERRORS=ON):
#   release     Release build + full ctest suite
#   asan-ubsan  Debug + ASan/UBSan + expensive-tier RUMR_CHECKs + ctest
#   tsan        RelWithDebInfo + TSan + expensive-tier RUMR_CHECKs + ctest
#   tidy        clang-tidy over src/ with the repo .clang-tidy, zero-warning
#               gate (skipped with a notice when clang-tidy is not installed)
#   lint        self-hosted determinism lint (tools/rumr_lint): zero-finding
#               gate over src/, tools/, and bench/ enforcing the rule catalog
#               in DESIGN.md §12 (no ambient randomness, no wall clocks
#               outside the obs allowlist, no unordered/pointer-keyed
#               iteration, no mutable statics, no exact float compares in
#               policy code, #pragma once, suppression hygiene), plus the
#               header self-sufficiency gate (every src/ header compiles as
#               a standalone TU). Unlike tidy, this stage has no external
#               dependency and always runs.
#   chaos       seeded fault-injection campaign (tools/chaos_campaign) under
#               the release and asan-ubsan presets: the small grid sweeps
#               message loss x bandwidth degradation x worker MTBF x workload
#               error for every policy, self-audits each cell, and
#               --error-exit fails the stage on any audit violation or
#               non-converging run
#   serve       what-if scheduling server (tools/rumr_serve) under the release
#               and asan-ubsan presets: --self-test covers cached-vs-cold
#               byte identity (including a pass-through cache), concurrent
#               exactly-once solving, reject/shed admission, and the
#               rumr::Serve stream pump; then a full framed session round
#               trip (--emit-demo-requests -> --stdio -> the verifier, which
#               requires warm == cold bytes and the expected cache-hit
#               ledger); nonzero exit on any violation
#   perf        fresh bench_perf_json snapshot (results/BENCH_des.json) gated
#               by tools/perf_gate against the checked-in
#               results/BENCH_baseline.json: any rate more than 20% below
#               baseline fails the stage; every snapshot is appended to
#               results/BENCH_history.jsonl for the trajectory
#
# The release, asan-ubsan, and tsan stages each finish with an explicit
# `ctest -L regression` pass: the golden-trace replays, the DES
# property/fuzz suite, the determinism lint, the self-auditing demos and
# harnesses (metrics_demo, jobs_demo, sweep_demo, race_demo,
# determinism_check, robustness_demo, and the rumr_cli --algorithm case
# fold; tests/CMakeLists.txt) are the lockdown for kernel/engine rework, so
# they run visibly in every sanitizer configuration, not just inside the
# full suite.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
STAGES=("${@:-release asan-ubsan tsan tidy lint chaos serve perf}")
# Re-split in case the default string was taken as one word.
read -r -a STAGES <<< "${STAGES[*]}"

banner() { printf '\n=== %s ===\n' "$*"; }

# Reject typos up front, before any stage burns build time.
for stage in "${STAGES[@]}"; do
  case "$stage" in
    release|asan-ubsan|tsan|tidy|lint|chaos|serve|perf) ;;
    *)
      echo "ci.sh: unknown stage '$stage' (valid: release | asan-ubsan | tsan | tidy | lint | chaos | serve | perf)" >&2
      exit 2
      ;;
  esac
done

build_and_test() {
  local preset="$1"
  banner "configure [$preset]"
  cmake --preset "$preset"
  banner "build [$preset]"
  cmake --build --preset "$preset" -j "$JOBS"
  banner "ctest [$preset]"
  ctest --preset "$preset" -j "$JOBS"
  banner "regression suite [$preset]"
  ctest --preset "$preset" -L regression
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    release|asan-ubsan)
      build_and_test "$stage"
      ;;
    tsan)
      # Suppress nothing: the suite must be race-free as-is.
      TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" build_and_test tsan
      ;;
    tidy)
      if ! command -v clang-tidy > /dev/null 2>&1; then
        banner "tidy SKIPPED: clang-tidy not installed"
        continue
      fi
      banner "configure [tidy]"
      cmake --preset tidy
      banner "clang-tidy over src/ [zero-warning gate]"
      cmake --build --preset tidy -j "$JOBS"
      ;;
    lint)
      banner "configure+build rumr_lint [release]"
      cmake --preset release
      cmake --build --preset release -j "$JOBS" --target rumr_lint
      banner "determinism lint over src/ tools/ bench/ [zero-finding gate]"
      ./build/release/tools/rumr_lint --root . \
        --compile-commands build/release/compile_commands.json --error-exit
      banner "header self-sufficiency [every src/ header as a standalone TU]"
      cmake --build --preset release -j "$JOBS" --target rumr_header_selfcheck
      ;;
    chaos)
      # Every cell of the campaign self-audits (work conservation, banked-work
      # accounting, span sanity) and must converge within its event budget;
      # --error-exit turns any violation into a stage failure. The seed is
      # pinned so a red stage is reproducible bit-for-bit.
      for preset in release asan-ubsan; do
        banner "configure+build chaos_campaign [$preset]"
        cmake --preset "$preset"
        cmake --build --preset "$preset" -j "$JOBS" --target chaos_campaign
        banner "chaos campaign, small grid [$preset]"
        "./build/$preset/tools/chaos_campaign" --grid small --seed 802537 \
          --out "build/$preset/CHAOS.json" --error-exit
      done
      ;;
    serve)
      # The self-test exits nonzero when the serving path breaks any of its
      # contracts; the framed round trip then exercises the wire protocol
      # end to end and the verifier re-checks byte identity and the
      # cache-hit ledger on the decoded frames.
      for preset in release asan-ubsan; do
        banner "configure+build rumr_serve [$preset]"
        cmake --preset "$preset"
        cmake --build --preset "$preset" -j "$JOBS" --target rumr_serve
        banner "serve self-test [$preset]"
        "./build/$preset/tools/rumr_serve" --self-test
        banner "serve framed session round trip [$preset]"
        "./build/$preset/tools/rumr_serve" --emit-demo-requests \
          "build/$preset/serve_requests.bin"
        "./build/$preset/tools/rumr_serve" --stdio \
          < "build/$preset/serve_requests.bin" \
          > "build/$preset/serve_responses.bin"
        "./build/$preset/tools/rumr_serve" --verify-demo-responses \
          "build/$preset/serve_responses.bin"
      done
      ;;
    perf)
      banner "configure+build perf gate [release]"
      cmake --preset release
      cmake --build --preset release -j "$JOBS" --target bench_perf_json perf_gate
      banner "perf snapshot [release]"
      ./build/release/bench/bench_perf_json results/BENCH_des.json
      banner "perf gate vs results/BENCH_baseline.json [>20% regression fails]"
      ./build/release/tools/perf_gate results/BENCH_des.json results/BENCH_baseline.json \
        --threshold 0.20 --history results/BENCH_history.jsonl
      ;;
    *)
      echo "unknown stage '$stage' (release|asan-ubsan|tsan|tidy|lint|chaos|serve|perf)" >&2
      exit 2
      ;;
  esac
done

banner "ci.sh: all requested stages passed"
