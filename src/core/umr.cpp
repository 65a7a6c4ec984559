#include "core/umr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/resource_selection.hpp"

namespace rumr::core {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Platform aggregates the UMR recurrence needs.
struct Aggregates {
  double a = 0.0;         ///< A = sum S_i / B_i.
  double beta = 0.0;      ///< sum nLat_i - sum S_i cLat_i / B_i.
  double s_total = 0.0;   ///< sum S_i.
  double d = 0.0;         ///< sum S_i cLat_i.
  double c2 = 0.0;        ///< sum S_i cLat_i / B_i.
  double sum_nlat = 0.0;  ///< sum nLat_i.
  double max_clat = 0.0;  ///< max cLat_i (round time must exceed it).
  double max_tlat = 0.0;  ///< max tLat_i (tail term of the makespan).
};

Aggregates compute_aggregates(const platform::StarPlatform& p) {
  Aggregates g;
  for (const platform::WorkerSpec& w : p.workers()) {
    g.a += w.speed / w.bandwidth;
    g.s_total += w.speed;
    g.d += w.speed * w.comp_latency;
    g.c2 += w.speed * w.comp_latency / w.bandwidth;
    g.sum_nlat += w.comm_latency;
    g.max_clat = std::max(g.max_clat, w.comp_latency);
    g.max_tlat = std::max(g.max_tlat, w.transfer_latency);
  }
  g.beta = g.sum_nlat - g.c2;
  return g;
}

/// Round-time sequence for a given (possibly fractional, for the continuous
/// relaxation) round count. Returns tau_0, or NaN when the geometry breaks
/// down numerically.
double initial_round_time(const Aggregates& g, double w_total, double m) {
  const double sum_tau_target = (w_total + m * g.d) / g.s_total;
  if (std::abs(g.a - 1.0) < 1e-12) {
    // rho == 1: arithmetic round times, tau_{j+1} = tau_j - beta.
    return sum_tau_target / m + g.beta * (m - 1.0) / 2.0;
  }
  const double rho = 1.0 / g.a;
  // Guard rho^m against overflow; such m are wildly past the optimum anyway.
  if (m * std::log(std::max(rho, 1e-300)) > 650.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double tau_star = g.beta / (1.0 - g.a);
  const double geo_sum = (std::pow(rho, m) - 1.0) / (rho - 1.0);
  return tau_star + (sum_tau_target - m * tau_star) / geo_sum;
}

/// Predicted makespan E(M) = round-0 dispatch + sum of round times + tail:
///   E = sum nLat_i + A*tau_0 - C2 + (W + M*D)/S_total + max tLat_i.
/// +inf when the round-time sequence is infeasible (some chunk <= 0).
double predicted_makespan(const Aggregates& g, double w_total, double m, double tau0) {
  if (!std::isfinite(tau0)) return kInfinity;
  // Feasibility: every round time must exceed the largest cLat so all chunks
  // are positive. The sequence is monotone, so checking both ends suffices;
  // the final value has the closed form
  //   tau_{M-1} = tau* + (tau_0 - tau*) rho^{M-1},  tau* = beta / (1 - A),
  // or tau_0 - beta (M-1) on the rho == 1 branch.
  const double floor_tau = g.max_clat + 1e-12 * std::max(1.0, std::abs(tau0));
  const double last = std::ceil(m) - 1.0;
  double tau = tau0 - g.beta * last;
  if (std::abs(g.a - 1.0) >= 1e-12) {
    const double tau_star = g.beta / (1.0 - g.a);
    tau = tau_star + (tau0 - tau_star) * std::pow(1.0 / g.a, last);
  }
  if (!(tau0 > floor_tau) || !(tau > floor_tau) || !std::isfinite(tau)) return kInfinity;
  return g.sum_nlat + g.a * tau0 - g.c2 + (w_total + m * g.d) / g.s_total + g.max_tlat;
}

double makespan_at(const Aggregates& g, double w_total, double m) {
  return predicted_makespan(g, w_total, m, initial_round_time(g, w_total, m));
}

/// Exact scan over integer round counts. M = 1 is always feasible
/// (tau_0 = (W + D)/S_total >= max cLat as long as W > 0), so this always
/// returns a valid M.
std::size_t scan_rounds(const Aggregates& g, double w_total, std::size_t max_rounds) {
  std::size_t best_m = 1;
  double best_e = makespan_at(g, w_total, 1.0);
  for (std::size_t m = 2; m <= max_rounds; ++m) {
    const double e = makespan_at(g, w_total, static_cast<double>(m));
    // Require a material improvement so flat tails (e.g. zero latencies,
    // where E(M) decreases forever by vanishing amounts) terminate.
    if (e < best_e - 1e-9 * (1.0 + std::abs(best_e))) {
      best_e = e;
      best_m = m;
    } else if (m > best_m + 64) {
      break;  // Well past the minimum.
    }
  }
  return best_m;
}

/// The paper's route: treat M as continuous, locate the stationary point of
/// E(M) numerically (bisection on the finite-difference derivative), then
/// take the better of the two neighboring integers.
std::size_t bisect_rounds(const Aggregates& g, double w_total, std::size_t max_rounds) {
  const auto e_of = [&](double m) { return makespan_at(g, w_total, m); };
  const auto derivative = [&](double m) {
    const double h = std::max(1e-4, 1e-6 * m);
    return (e_of(m + h) - e_of(m - h)) / (2.0 * h);
  };

  // Find an upper bracket: the largest feasible power-of-two round count.
  double hi = 1.0;
  while (hi < static_cast<double>(max_rounds) && std::isfinite(e_of(hi * 2.0))) hi *= 2.0;
  hi = std::min(hi, static_cast<double>(max_rounds));

  double lo = 1.0;
  double m_star = hi;
  if (derivative(lo + 1e-4) >= 0.0) {
    m_star = 1.0;  // E already increasing at M = 1.
  } else if (derivative(hi) <= 0.0) {
    m_star = hi;  // Still decreasing at the bracket edge.
  } else {
    for (int iter = 0; iter < 200 && hi - lo > 1e-6; ++iter) {
      const double mid = 0.5 * (lo + hi);
      (derivative(mid) < 0.0 ? lo : hi) = mid;
    }
    m_star = 0.5 * (lo + hi);
  }

  const auto floor_m = static_cast<std::size_t>(std::max(1.0, std::floor(m_star)));
  const std::size_t ceil_m = std::min<std::size_t>(floor_m + 1, max_rounds);
  const double e_floor = makespan_at(g, w_total, static_cast<double>(floor_m));
  const double e_ceil = makespan_at(g, w_total, static_cast<double>(ceil_m));
  if (!std::isfinite(e_floor) && !std::isfinite(e_ceil)) return 1;
  return e_ceil < e_floor ? ceil_m : floor_m;
}

}  // namespace

double UmrSchedule::total() const {
  double sum = 0.0;
  for (const auto& round : chunk) {
    for (double c : round) sum += c;
  }
  return sum;
}

std::vector<sim::Dispatch> UmrSchedule::to_plan() const {
  std::vector<sim::Dispatch> plan;
  plan.reserve(rounds * selected_workers.size());
  for (const auto& round : chunk) {
    for (std::size_t k = 0; k < round.size(); ++k) {
      if (round[k] > 0.0) plan.push_back({selected_workers[k], round[k]});
    }
  }
  return plan;
}

double umr_predicted_makespan(const platform::StarPlatform& platform, double w_total,
                              std::size_t rounds) {
  const Aggregates g = compute_aggregates(platform);
  return makespan_at(g, w_total, static_cast<double>(rounds));
}

UmrSchedule solve_umr(const platform::StarPlatform& platform, double w_total,
                      const UmrOptions& options) {
  if (!(w_total > 0.0) || !std::isfinite(w_total)) {
    throw std::invalid_argument("UMR requires a positive, finite workload");
  }
  if (options.max_rounds == 0) throw std::invalid_argument("max_rounds must be >= 1");

  // Resource selection: enforce the full-utilization condition when asked.
  std::vector<std::size_t> selected(platform.size());
  std::iota(selected.begin(), selected.end(), std::size_t{0});
  const double budget = 1.0 - options.utilization_margin;
  if (options.allow_resource_selection && platform.utilization_ratio() > budget) {
    selected = select_workers(platform, budget);
  }
  const platform::StarPlatform active =
      selected.size() == platform.size() ? platform : platform.subset(selected);

  const Aggregates g = compute_aggregates(active);
  const std::size_t m = options.method == UmrSolverMethod::kScan
                            ? scan_rounds(g, w_total, options.max_rounds)
                            : bisect_rounds(g, w_total, options.max_rounds);

  UmrSchedule schedule;
  schedule.rounds = m;
  schedule.selected_workers = selected;
  schedule.used_resource_selection = selected.size() != platform.size();
  schedule.growth = 1.0 / g.a;
  schedule.predicted_makespan = makespan_at(g, w_total, static_cast<double>(m));

  schedule.round_time.resize(m);
  schedule.round_time[0] = initial_round_time(g, w_total, static_cast<double>(m));
  for (std::size_t j = 1; j < m; ++j) {
    schedule.round_time[j] = (schedule.round_time[j - 1] - g.beta) / g.a;
  }

  schedule.chunk.assign(m, std::vector<double>(active.size(), 0.0));
  double sum = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < active.size(); ++k) {
      const platform::WorkerSpec& w = active.worker(k);
      const double c = std::max(0.0, w.speed * (schedule.round_time[j] - w.comp_latency));
      schedule.chunk[j][k] = c;
      sum += c;
    }
  }
  // Normalize away floating-point drift so the dispatched total is exactly W.
  if (sum > 0.0) {
    const double scale = w_total / sum;
    for (auto& round : schedule.chunk) {
      for (double& c : round) c *= scale;
    }
  }
  return schedule;
}

}  // namespace rumr::core
