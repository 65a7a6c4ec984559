// serve-zipf: a closed loop of framed what-if batches against the scheduling
// server. The client sends its next batch only after decoding the previous
// reply. Queries are drawn Zipf from a fixed population of distinct problems
// (mixed algorithms, homogeneous and heterogeneous platforms, nonzero
// latencies) smaller than the plan cache, so every round's hit, miss and
// solve counts depend only on the seed.
//
// A round starts a fresh server (cold cache) and plays the request sequence
// once; request i is a pure function of (seed, i). Rounds repeat until the
// measuring time is used. The timed loop is one client on a single-thread
// server, which runs each request on the caller's thread. On a 4-vCPU
// virtual machine every cross-thread handoff can wait for the host to
// reschedule a halted vCPU; two clients on a four-thread server swung
// throughput 2.5x between runs as host load changed (29% steal time at the
// low end). The traced run still measures the concurrent loop and reports
// its handoff cost and speedup.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check/trace_audit.hpp"
#include "common.hpp"
#include "config/run_description.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/master_worker.hpp"
#include "util/json_lite.hpp"

namespace perfbench {
namespace {

// The traffic shape is assumed, not fitted to a measured trace; README.md
// gives the reason for each value. The round length sets the miss share.
constexpr std::size_t kPopulation = 1024;      ///< Distinct problems (< cache capacity 4096).
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kQueriesPerBatch = 8;
constexpr std::size_t kRequestsPerRound = 3200;

/// Wire names of the line-up, and the names the per-algorithm metrics use.
constexpr const char* kAlgorithms[][2] = {
    {"rumr", "RUMR"}, {"umr", "UMR"},           {"mi-1", "MI-1"}, {"mi-2", "MI-2"},
    {"mi-3", "MI-3"}, {"mi-4", "MI-4"}, {"factoring", "Factoring"}, {"fsc", "FSC"}};
constexpr std::size_t kAlgorithmCount = std::size(kAlgorithms);

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

double between(InputRng& rng, double lo, double hi) { return lo + (hi - lo) * rng.uniform01(); }

/// One population entry as query JSON. The entry's Zipf rank fixes its shape:
/// algorithm (rank mod 8, so the whole line-up is present), homogeneous or
/// heterogeneous platform, worker count, workload and error level. The seed
/// draws the concrete problem: speeds, bandwidths, latencies and the
/// perturbation seed. Every seed thus serves the same mix of work.
std::string make_query(std::uint64_t seed, std::size_t rank) {
  InputRng rng(mix(seed, 0x706f70ULL, rank));
  std::string platform;
  if ((rank / kAlgorithmCount) % 2 == 0) {
    const std::size_t n = 4 + (rank * 13) % 21;
    platform = "{\"homogeneous\":{\"workers\":" + std::to_string(n) +
               ",\"speed\":1,\"bandwidth\":" +
               fixed(between(rng, 1.2, 2.0) * static_cast<double>(n), 2) +
               ",\"comp_latency\":" + fixed(between(rng, 0.05, 1.0), 2) +
               ",\"comm_latency\":" + fixed(between(rng, 0.05, 1.0), 2) + "}}";
  } else {
    const std::size_t n = 4 + (rank * 5) % 9;
    platform = "{\"workers\":[";
    for (std::size_t w = 0; w < n; ++w) {
      platform += (w == 0 ? "{\"speed\":" : ",{\"speed\":") + fixed(between(rng, 0.5, 2.0), 2) +
                  ",\"bandwidth\":" + fixed(between(rng, 1.2, 2.0) * static_cast<double>(n), 2) +
                  ",\"comp_latency\":" + fixed(between(rng, 0.05, 1.0), 2) +
                  ",\"comm_latency\":" + fixed(between(rng, 0.05, 1.0), 2) + "}";
    }
    platform += "]}";
  }
  const char* workloads[] = {"250", "500", "1000"};
  const std::string error = fixed(0.02 * static_cast<double>((rank * 7) % 25), 2);
  return "{\"platform\":" + platform + ",\"workload\":" + workloads[rank % 3] +
         ",\"algorithm\":\"" + kAlgorithms[rank % kAlgorithmCount][0] +
         "\",\"known_error\":" + error + ",\"error\":" + error +
         ",\"seed\":" + std::to_string(rng.next() >> 12) + "}";
}

/// Everything a round replays, generated from the seed. Request payloads are
/// built from these when sent, so the inputs stay small.
struct ServeInputs {
  std::vector<std::string> population;          ///< Query JSON per entry (= Zipf rank).
  std::vector<std::vector<std::size_t>> drawn;  ///< Request i's population entries.
};

ServeInputs make_inputs(std::uint64_t seed) {
  ServeInputs inputs;
  for (std::size_t i = 0; i < kPopulation; ++i) inputs.population.push_back(make_query(seed, i));

  std::vector<double> cdf(kPopulation);
  double total = 0.0;
  for (std::size_t r = 0; r < kPopulation; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  for (std::size_t i = 0; i < kRequestsPerRound; ++i) {
    InputRng rng(mix(seed, 0x726571ULL, i));
    std::vector<std::size_t> entries;
    for (std::size_t q = 0; q < kQueriesPerBatch; ++q) {
      const double u = rng.uniform01() * total;
      const auto rank =
          static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      entries.push_back(std::min(rank, kPopulation - 1));
    }
    inputs.drawn.push_back(std::move(entries));
  }
  return inputs;
}

/// Request i's payload: a batch with id i of its drawn entries' queries.
std::string request_payload(const ServeInputs& inputs, std::size_t i) {
  std::string payload = "{\"type\":\"batch\",\"id\":" + std::to_string(i) + ",\"queries\":[";
  for (std::size_t q = 0; q < inputs.drawn[i].size(); ++q) {
    payload += (q == 0 ? "" : ",") + inputs.population[inputs.drawn[i][q]];
  }
  return payload + "]}";
}

/// Splits the `results` array of a result response into its elements' bytes.
/// Returns an empty vector when the response is not a result response.
std::vector<std::string_view> split_results(std::string_view response) {
  std::vector<std::string_view> elements;
  const std::string_view marker = "\"results\":[";
  const std::size_t at = response.find(marker);
  if (!response.starts_with("{\"type\":\"result\"") || at == std::string_view::npos) {
    return elements;
  }
  std::size_t begin = at + marker.size();
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < response.size(); ++i) {
    const char ch = response[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      if (depth == 0) {  // The closing bracket of the results array.
        if (i > begin) elements.push_back(response.substr(begin, i - begin));
        return elements;
      }
      --depth;
    } else if (ch == ',' && depth == 0) {
      elements.push_back(response.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return {};
}

/// True when `response` answers request `id` with one plan per query.
bool response_ok(std::string_view response, std::size_t id) {
  const std::string prefix = "{\"type\":\"result\",\"id\":" + std::to_string(id) + ",";
  if (!response.starts_with(prefix)) return false;
  const std::vector<std::string_view> plans = split_results(response);
  if (plans.size() != kQueriesPerBatch) return false;
  return std::none_of(plans.begin(), plans.end(), [](std::string_view plan) {
    return plan.starts_with("{\"error\"");
  });
}

/// Counts one round's server ledger must repeat exactly.
struct RoundCounts {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t solves = 0;
  std::uint64_t evictions = 0;
  bool operator==(const RoundCounts&) const = default;
};

struct Round {
  double wall_s = 0.0;
  std::vector<double> latencies_ms;  ///< Indexed by request id.
  std::uint64_t failed = 0;
  RoundCounts counts;
  std::uint64_t queue_high_water = 0;
  bool ledger_ok = false;
  /// Plan bytes per population entry, collected only when asked; answers
  /// to one entry that differ within the round clear `plans_consistent`.
  std::map<std::size_t, std::string> plans;
  bool plans_consistent = true;
};

/// One closed-loop round: a fresh server with `threads` workers, and
/// `clients` client threads; client c sends requests c, c + clients, ...
/// Each request is framed by the client, decoded on the server side of the
/// in-process link, submitted, and its reply framed and decoded again;
/// latency runs from encode to decode. The round's latency samples stay in
/// the round. With one client and one thread the
/// client's own thread runs the round and the server runs requests inline.
Round closed_loop_round(const ServeInputs& inputs, std::size_t threads, std::size_t clients,
                        bool collect_plans) {
  rumr::serve::ServerOptions server_options;
  server_options.threads = threads;
  rumr::serve::Server server(server_options);

  Round round;
  round.latencies_ms.resize(kRequestsPerRound);
  std::vector<std::uint64_t> failed(clients, 0);
  std::vector<std::map<std::size_t, std::string>> plans(clients);
  std::vector<char> consistent(clients, 1);

  const auto client = [&](std::size_t c) {
    for (std::size_t i = c; i < kRequestsPerRound; i += clients) {
      const std::string request = request_payload(inputs, i);
      const auto start = Clock::now();
      rumr::serve::FrameDecoder inbound;
      inbound.feed(rumr::serve::encode_frame(request));
      std::optional<std::string> payload = inbound.next();
      std::string reply = payload ? server.submit(std::move(*payload)).get() : std::string();
      rumr::serve::FrameDecoder outbound;
      outbound.feed(rumr::serve::encode_frame(reply));
      std::optional<std::string> decoded = outbound.next();
      round.latencies_ms[i] = seconds_since(start) * 1e3;
      if (!decoded || !response_ok(*decoded, i)) ++failed[c];
      if (collect_plans && decoded) {
        const std::vector<std::string_view> elements = split_results(*decoded);
        const std::vector<std::size_t>& entries = inputs.drawn[i];
        for (std::size_t q = 0; q < std::min(elements.size(), entries.size()); ++q) {
          const auto [it, inserted] = plans[c].emplace(entries[q], std::string(elements[q]));
          if (!inserted && it->second != elements[q]) consistent[c] = 0;
        }
      }
    }
  };

  const auto start = Clock::now();
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < clients; ++c) pool.emplace_back(client, c);
    for (std::thread& t : pool) t.join();
  }
  round.wall_s = seconds_since(start);
  server.wait_idle();

  for (std::size_t c = 0; c < clients; ++c) {
    round.failed += failed[c];
    round.plans_consistent = round.plans_consistent && consistent[c] != 0;
    for (auto& [entry, plan] : plans[c]) {
      const auto [it, inserted] = round.plans.emplace(entry, plan);
      if (!inserted && it->second != plan) round.plans_consistent = false;
    }
  }
  const rumr::obs::ServeStats stats = server.stats();
  round.counts = {stats.plan_cache.lookups, stats.plan_cache.hits, stats.plan_cache.misses,
                  stats.solves, stats.plan_cache.evictions};
  round.queue_high_water = stats.queue_depth_high_water;
  round.ledger_ok = stats.received == kRequestsPerRound &&
                    stats.admitted == stats.received && stats.rejected == 0 && stats.shed == 0 &&
                    stats.completed == stats.admitted && stats.query_errors == 0 &&
                    stats.plan_cache.failed_solves == 0;
  return round;
}

/// Checks every distinct query's plan bytes collected in a round: warm
/// answers to one query agree with each other, and with a cold pass-through
/// server (cache_capacity = 0) solving that query alone.
void check_plans(const ServeInputs& inputs, const Round& round, Result& result) {
  result.check(round.plans_consistent, "serve: warm answers to one query differ within a round");
  rumr::serve::ServerOptions cold_options;
  cold_options.threads = 1;
  cold_options.cache_capacity = 0;
  rumr::serve::Server cold(cold_options);
  std::size_t mismatches = 0;
  for (const auto& [entry, plan] : round.plans) {
    const std::string reply =
        cold.handle("{\"type\":\"batch\",\"id\":0,\"queries\":[" + inputs.population[entry] + "]}");
    const std::vector<std::string_view> elements = split_results(reply);
    if (elements.size() != 1 || elements[0] != plan) ++mismatches;
  }
  result.check(mismatches == 0, "serve: " + std::to_string(mismatches) +
                                    " plans differ from a cold pass-through solve");
}

// --- untraced run: end-to-end metrics ---------------------------------------

void measure(const Options& options, Result& result) {
  // Set-up: generate the inputs, then one untimed warm-up round on a fresh
  // server, each time from a trimmed heap so every set-up starts alike.
  std::vector<double> setup_times;
  ServeInputs inputs;
  const auto set_up = [&] {
    malloc_trim(0);
    const auto start = Clock::now();
    inputs = make_inputs(options.seed);
    const Round warm = closed_loop_round(inputs, 1, 1, false);
    setup_times.push_back(seconds_since(start));
    result.attempted += kRequestsPerRound;
    result.failed += warm.failed;
  };
  set_up();

  // One untimed round that collects every distinct query's plan for the
  // output check and fixes the counts every timed round must repeat.
  const Round checked = closed_loop_round(inputs, 1, 1, true);
  check_plans(inputs, checked, result);
  const RoundCounts first_counts = checked.counts;
  bool counts_repeat = true;
  bool ledger_ok = checked.ledger_ok;
  result.attempted += kRequestsPerRound;
  result.failed += checked.failed;
  // The peak resident set covers the timed rounds and later set-ups, not
  // the cold pass-through server of the check above.
  reset_peak_rss();

  // Timed rounds. Every round is the same request sequence on a fresh
  // server, so one request costs the same work in every round; rounds differ
  // only by interference from the rest of the machine, which on a shared
  // host comes in spells of seconds that slow this loop by up to 2x. Each
  // request's latency is therefore its fastest over the rounds, a figure no
  // spell shorter than the run reaches. Memory stays one value per request.
  std::vector<double> best_ms(kRequestsPerRound, std::numeric_limits<double>::infinity());
  std::vector<double> round_rates;
  const auto queries_per_round = static_cast<double>(kRequestsPerRound * kQueriesPerBatch);
  const auto start = Clock::now();
  do {
    if (setup_due(setup_times.size(), seconds_since(start), options.seconds)) set_up();
    const Round round = closed_loop_round(inputs, 1, 1, false);
    counts_repeat = counts_repeat && round.counts == first_counts;
    ledger_ok = ledger_ok && round.ledger_ok;
    for (std::size_t i = 0; i < kRequestsPerRound; ++i) {
      best_ms[i] = std::min(best_ms[i], round.latencies_ms[i]);
    }
    round_rates.push_back(queries_per_round / round.wall_s);
    result.attempted += kRequestsPerRound;
    result.failed += round.failed;
  } while (seconds_since(start) < options.seconds || setup_times.size() < kSetups);
  double best_total_ms = 0.0;
  for (const double ms : best_ms) best_total_ms += ms;

  result.check(result.failed == 0, "serve: " + std::to_string(result.failed) +
                                       " requests were refused or answered with an error");
  result.check(ledger_ok, "serve: the server's request ledger does not balance");
  result.check(counts_repeat, "serve: hit/miss/solve counts changed between rounds of one seed");
  result.check(first_counts.misses == first_counts.solves && first_counts.evictions == 0,
               "serve: misses, solves and evictions disagree with a cache above the population");

  std::cerr << "perfbench: serve-zipf timed rounds=" << round_rates.size()
            << " latency samples/round=" << kRequestsPerRound << " misses/round="
            << first_counts.misses << " hits/round=" << first_counts.hits << " failed_frac="
            << static_cast<double>(result.failed) / static_cast<double>(result.attempted)
            << " round rate min/p25/p75/max=" << quantile(round_rates, 0.0) << "/"
            << quantile(round_rates, 0.25) << "/" << quantile(round_rates, 0.75) << "/"
            << quantile(round_rates, 1.0) << "\n";
  result.metric("setup_s", quantile(setup_times, 0.5), "s");
  result.metric("ops_per_s", queries_per_round / (best_total_ms * 1e-3), "1/s");
  result.metric("latency_p50_ms", quantile(best_ms, 0.5), "ms");
  result.metric("latency_p90_ms", quantile(best_ms, 0.9), "ms");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

// --- traced run: per-layer metrics ------------------------------------------

std::size_t algorithm_index(const std::string& wire_name) {
  for (std::size_t a = 0; a < kAlgorithmCount; ++a) {
    if (wire_name == kAlgorithms[a][0]) return a;
  }
  return kAlgorithmCount;
}

/// Totals of the traced serial replays.
struct Replay {
  std::size_t rounds = 0;
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t queries = 0;
  std::uint64_t solves = 0;
  std::uint64_t events = 0;
  std::uint64_t hits = 0;
  std::int64_t hit_ns = 0;
  std::vector<std::uint64_t> algo_solves = std::vector<std::uint64_t>(kAlgorithmCount + 1, 0);
  std::vector<double> algo_plan_s = std::vector<double>(kAlgorithmCount + 1, 0.0);
  std::vector<double> algo_sim_s = std::vector<double>(kAlgorithmCount + 1, 0.0);
  std::vector<double> service_us;  ///< Per request, first round.
};

/// What one replayed round produced, for the checks.
struct ReplayRound {
  RoundCounts counts;
  std::map<std::size_t, std::pair<double, std::uint64_t>> solved;  ///< entry -> makespan, events
  bool framing_ok = true;
};

/// Serial replay of one round with a span around every layer call: framing,
/// parsing, canonical keys, the plan cache, the cold solve (policy
/// construction, simulation with a recorded trace, audit) and the response
/// envelope. It calls the layers directly, so the server's admission
/// bookkeeping and plan serialization are absent.
ReplayRound replay_round(const ServeInputs& inputs, SpanLog& log, Replay& replay) {
  ReplayRound round;
  rumr::serve::PlanCache cache;
  const bool first_round = replay.rounds == 0;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < kRequestsPerRound; ++r) {
    const std::string sent = request_payload(inputs, r);
    const auto request_start = Clock::now();
    const ScopedSpan request_span(log, "request", 0, r);
    std::string payload;
    {
      const ScopedSpan span(log, "frame", request_span.id(), r);
      rumr::serve::FrameDecoder inbound;
      inbound.feed(rumr::serve::encode_frame(sent));
      std::optional<std::string> decoded = inbound.next();
      round.framing_ok = round.framing_ok && decoded.has_value();
      payload = decoded.value_or(std::string());
    }
    rumr::serve::Request request;
    {
      const ScopedSpan span(log, "parse", request_span.id(), r);
      request = rumr::serve::parse_request(payload);
    }
    std::vector<std::string> results;
    for (std::size_t q = 0; q < request.queries.size(); ++q) {
      const rumr::serve::Query& query = request.queries[q].query.value();
      std::string key;
      std::uint64_t fingerprint = 0;
      {
        const ScopedSpan span(log, "canon", request_span.id(), r);
        key = rumr::serve::canonical_query_key(query);
        fingerprint = rumr::serve::fnv1a64(key);
      }
      bool solved_here = false;
      const auto solve = [&]() -> std::string {
        solved_here = true;
        const ScopedSpan solve_span(log, "solve", request_span.id(), r);
        const std::size_t algo = algorithm_index(query.algorithm);
        const rumr::platform::StarPlatform platform{
            std::vector<rumr::platform::WorkerSpec>(query.workers)};
        std::unique_ptr<rumr::sim::SchedulerPolicy> policy;
        {
          const ScopedSpan span(log, "plan", solve_span.id(), r);
          const auto t = Clock::now();
          policy = rumr::config::make_policy(query.algorithm, platform, query.workload,
                                             query.known_error);
          replay.algo_plan_s[algo] += seconds_since(t);
        }
        rumr::sim::SimOptions sim_options =
            rumr::sim::SimOptions::with_error(query.error, query.seed);
        sim_options.record_trace = true;
        sim_options.uplink_channels = query.uplink_channels;
        sim_options.output_ratio = query.output_ratio;
        sim_options.worker_buffer_capacity = query.worker_buffer_capacity;
        TimedPolicy timed(*policy);
        rumr::sim::SimResult sim_result;
        {
          ScopedSpan span(log, "sim", solve_span.id(), r);
          const auto t = Clock::now();
          sim_result = rumr::sim::simulate(platform, timed, sim_options);
          replay.algo_sim_s[algo] += seconds_since(t);
          span.set_nested(timed.callback_ns());
        }
        {
          const ScopedSpan span(log, "audit", solve_span.id(), r);
          rumr::check::TraceAuditOptions audit_options;
          audit_options.work_tolerance = sim_options.work_tolerance;
          audit_options.uplink_channels = sim_options.uplink_channels;
          rumr::check::audit_sim_result(sim_result, platform, query.workload, audit_options)
              .throw_if_failed();
        }
        ++replay.algo_solves[algo];
        ++replay.solves;
        replay.events += sim_result.events;
        round.solved[inputs.drawn[r][q]] = {sim_result.makespan, sim_result.events};
        return "{\"makespan\":" + std::to_string(sim_result.makespan) +
               ",\"fingerprint\":" + std::to_string(fingerprint) + "}";
      };
      std::int64_t lookup_ns = 0;
      {
        const ScopedSpan span(log, "cache", request_span.id(), r);
        const auto lookup_start = Clock::now();
        results.push_back(*cache.get_or_compute(key, solve));
        lookup_ns = nanos_since(lookup_start);
      }
      if (!solved_here) {
        replay.hit_ns += lookup_ns;
        ++replay.hits;
      }
      ++replay.queries;
    }
    std::string response;
    {
      const ScopedSpan span(log, "respond", request_span.id(), r);
      response = rumr::serve::make_result_response(request.id, results);
    }
    {
      const ScopedSpan span(log, "frame", request_span.id(), r);
      rumr::serve::FrameDecoder outbound;
      outbound.feed(rumr::serve::encode_frame(response));
      round.framing_ok = round.framing_ok && outbound.next().has_value();
    }
    ++replay.requests;
    if (first_round) replay.service_us.push_back(seconds_since(request_start) * 1e6);
  }
  replay.wall_s += seconds_since(start);
  ++replay.rounds;
  const rumr::obs::CacheStats stats = cache.stats();
  round.counts = {stats.lookups, stats.hits, stats.misses, round.solved.size(), stats.evictions};
  return round;
}

/// The seed's cache footprint, computed cheaply: the request sequence
/// through a bare plan cache whose solver does no work. `solved` digests the
/// canonical keys in the order they were first solved.
struct Footprint {
  RoundCounts counts;
  std::uint64_t solved = 0;
};

Footprint cache_footprint(const ServeInputs& inputs) {
  rumr::serve::PlanCache cache;
  Digest solved;
  for (std::size_t i = 0; i < kRequestsPerRound; ++i) {
    const rumr::serve::Request request = rumr::serve::parse_request(request_payload(inputs, i));
    for (const rumr::serve::QuerySlot& slot : request.queries) {
      const std::string key = rumr::serve::canonical_query_key(slot.query.value());
      (void)cache.get_or_compute(key, [&] {
        solved.bytes(key);
        return std::string();
      });
    }
  }
  const rumr::obs::CacheStats stats = cache.stats();
  return {{stats.lookups, stats.hits, stats.misses, stats.misses, stats.evictions}, solved.value()};
}

void trace(const Options& options, Result& result) {
  const ServeInputs inputs = make_inputs(options.seed);
  const std::size_t clients = std::max<std::size_t>(1, options.threads / 2);

  // Untraced references, five rounds each (medians): the serial loop the
  // end-to-end metrics time, and a concurrent loop of nproc / 2 clients on
  // an nproc-thread server. Both must give the same counts.
  constexpr int kReferenceRounds = 5;
  const Round serial = closed_loop_round(inputs, 1, 1, true);
  check_plans(inputs, serial, result);
  const std::map<std::size_t, std::string>& plans = serial.plans;
  std::vector<double> serial_s;
  std::vector<double> parallel_s;
  std::vector<double> concurrent_latencies_ms;
  std::uint64_t queue_high_water = 0;
  bool counts_ok = true;
  for (int i = 0; i < kReferenceRounds; ++i) {
    const Round one = i == 0 ? serial : closed_loop_round(inputs, 1, 1, false);
    const Round many = closed_loop_round(inputs, options.threads, clients, false);
    serial_s.push_back(one.wall_s);
    parallel_s.push_back(many.wall_s);
    concurrent_latencies_ms.insert(concurrent_latencies_ms.end(), many.latencies_ms.begin(),
                                   many.latencies_ms.end());
    queue_high_water = std::max(queue_high_water, many.queue_high_water);
    counts_ok = counts_ok && one.counts == serial.counts && many.counts == serial.counts;
    result.failed += one.failed + many.failed;
    result.attempted += 2 * kRequestsPerRound;
  }
  result.check(counts_ok, "serve: hit/miss/solve counts changed between rounds of one seed");

  // Traced serial replays until the measuring time is used. Every replay must
  // reproduce the server's plans (makespan and event count) and counts.
  SpanLog log;
  Replay replay;
  bool replay_ok = true;
  std::size_t plan_mismatches = 0;
  const auto replay_start = Clock::now();
  do {
    const ReplayRound round = replay_round(inputs, log, replay);
    result.attempted += kRequestsPerRound;
    replay_ok = replay_ok && round.framing_ok && round.counts == serial.counts;
    for (const auto& [entry, solve] : round.solved) {
      const auto plan = plans.find(entry);
      if (plan == plans.end()) {
        ++plan_mismatches;
        continue;
      }
      const rumr::util::JsonValue doc = rumr::util::JsonValue::parse(plan->second);
      const rumr::util::JsonValue* makespan = doc.find("makespan");
      const rumr::util::JsonValue* events = doc.find("events");
      if (makespan == nullptr || events == nullptr || makespan->as_number() != solve.first ||
          events->as_number() != static_cast<double>(solve.second)) {
        ++plan_mismatches;
      }
    }
  } while (seconds_since(replay_start) < options.seconds);
  result.check(replay_ok, "serve: traced replay framing or hit/miss/solve counts differ from "
                          "the closed loop's");
  result.check(plan_mismatches == 0, "serve: " + std::to_string(plan_mismatches) +
                                         " traced replay solves disagree with the server's plans");

  // Self-check of the counts: the seed's cache footprint repeats the server's
  // counts exactly, and another seed changes it.
  const Footprint footprint = cache_footprint(inputs);
  const Footprint again = cache_footprint(inputs);
  const Footprint other = cache_footprint(make_inputs(options.seed + 1));
  result.check(footprint.counts == serial.counts && again.counts == footprint.counts &&
                   again.solved == footprint.solved,
               "serve: cache footprint did not repeat under the same seed");
  result.check(other.solved != footprint.solved,
               "serve: cache footprint did not change under a different seed");

  if (!options.trace_path.empty() && !log.write(options.trace_path)) {
    result.problems.push_back("could not write the span log to " + options.trace_path);
  }

  const auto solves = static_cast<double>(replay.solves);
  const auto requests = static_cast<double>(replay.requests);
  const auto queries = static_cast<double>(replay.queries);
  const double plan_s = log.seconds("plan");
  const double sim_s = log.seconds("sim");
  const double policy_s = static_cast<double>(log.total("sim").nested_ns) * 1e-9;
  const double audit_s = log.seconds("audit");
  const double serial_median_s = quantile(serial_s, 0.5);
  const double parallel_median_s = quantile(parallel_s, 0.5);
  std::cerr << "perfbench: serve-zipf replay " << replay.wall_s << " s over " << replay.rounds
            << " rounds; serial round " << serial_median_s << " s; " << clients
            << "-client round " << parallel_median_s << " s; solves/round "
            << serial.counts.solves << ", hits/round " << serial.counts.hits << "\n";

  result.metric("plan.us_per_run", plan_s / solves * 1e6, "us");
  result.metric("plan.share", plan_s / replay.wall_s, "fraction");
  result.metric("sim.us_per_run", sim_s / solves * 1e6, "us");
  result.metric("sim.share", sim_s / replay.wall_s, "fraction");
  result.metric("sim.policy_us_per_run", policy_s / solves * 1e6, "us");
  result.metric("sim.engine_self_us_per_run", (sim_s - policy_s) / solves * 1e6, "us");
  result.metric("audit.us_per_run", audit_s / solves * 1e6, "us");
  result.metric("audit.share", audit_s / replay.wall_s, "fraction");
  result.metric("des.events_per_run", static_cast<double>(replay.events) / solves, "count");
  result.metric("des.events_per_s", static_cast<double>(replay.events) / sim_s, "1/s");
  result.metric("merge.us_per_site", 0.0, "us");
  result.metric("sweep.speedup", serial_median_s / parallel_median_s, "ratio");
  result.metric("sweep.parallel_efficiency",
                serial_median_s / parallel_median_s / static_cast<double>(clients),
                "fraction");
  result.metric("trace.overhead_frac",
                replay.wall_s / static_cast<double>(replay.rounds) / serial_median_s - 1.0,
                "fraction");
  for (std::size_t a = 0; a < kAlgorithmCount; ++a) {
    const auto n = static_cast<double>(std::max<std::uint64_t>(replay.algo_solves[a], 1));
    result.metric(std::string("plan.us_per_run.") + kAlgorithms[a][1],
                  replay.algo_plan_s[a] / n * 1e6, "us");
    result.metric(std::string("sim.us_per_run.") + kAlgorithms[a][1],
                  replay.algo_sim_s[a] / n * 1e6, "us");
  }
  result.metric("serve.frame.us_per_request", log.seconds("frame") / requests * 1e6, "us");
  result.metric("serve.parse.us_per_query", log.seconds("parse") / queries * 1e6, "us");
  result.metric("serve.canon.us_per_query", log.seconds("canon") / queries * 1e6, "us");
  result.metric("serve.cache.us_per_hit",
                static_cast<double>(replay.hit_ns) * 1e-3 /
                    static_cast<double>(std::max<std::uint64_t>(replay.hits, 1)),
                "us");
  result.metric("serve.respond.us_per_request", log.seconds("respond") / requests * 1e6, "us");
  result.metric("serve.solve.plan_us", plan_s / solves * 1e6, "us");
  result.metric("serve.solve.sim_us", sim_s / solves * 1e6, "us");
  result.metric("serve.solve.audit_us", audit_s / solves * 1e6, "us");
  result.metric("serve.cache.hit_ratio",
                static_cast<double>(serial.counts.hits) /
                    static_cast<double>(serial.counts.lookups),
                "fraction");
  result.metric("serve.cache.misses", static_cast<double>(serial.counts.misses), "count");
  result.metric("serve.cache.evictions", static_cast<double>(serial.counts.evictions), "count");
  result.metric("serve.queue_depth_high_water", static_cast<double>(queue_high_water),
                "count");
  result.metric("serve.handoff_us",
                quantile(concurrent_latencies_ms, 0.5) * 1e3 - quantile(replay.service_us, 0.5),
                "us");
}

}  // namespace

void run_serve_workload(const Options& options, Result& result) {
  if (options.trace) {
    trace(options, result);
  } else {
    measure(options, result);
  }
}

void add_unexercised_serve_metrics(Result& result) {
  for (const char* name :
       {"serve.frame.us_per_request", "serve.parse.us_per_query", "serve.canon.us_per_query",
        "serve.cache.us_per_hit", "serve.respond.us_per_request", "serve.solve.plan_us",
        "serve.solve.sim_us", "serve.solve.audit_us", "serve.handoff_us"}) {
    result.metric(name, 0.0, "us");
  }
  result.metric("serve.cache.hit_ratio", 0.0, "fraction");
  for (const char* name :
       {"serve.cache.misses", "serve.cache.evictions", "serve.queue_depth_high_water"}) {
    result.metric(name, 0.0, "count");
  }
}

}  // namespace perfbench
