#include "baselines/multi_installment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "baselines/static_sequence.hpp"

namespace rumr::baselines {

std::vector<sim::Dispatch> MiSchedule::to_plan() const {
  std::vector<sim::Dispatch> plan;
  for (const auto& round : chunk) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      if (round[i] > 0.0) plan.push_back({i, round[i]});
    }
  }
  return plan;
}

double MiSchedule::total() const {
  double sum = 0.0;
  for (const auto& round : chunk) {
    for (double c : round) sum += c;
  }
  return sum;
}

namespace {

/// Chunk sizes of the MI schedule normalised to finish at T = 1, in dispatch
/// order (v = j*n + i: installment j, worker i), solved through the arrival
/// times t_v (end of chunk v's transfer). Back-to-back sends from t_{-1} = 0
/// and gap-free computation until T give, for chunk v on worker i,
///   alpha_v = B_i (t_v - t_{v-1}) = S_i (t_{v+n} - t_v),  t_{>= n*x} = 1,
/// i.e. row v: -t_{v-1} + (1 + r_i) t_v - r_i t_{v+n} = 0 with r_i = S_i/B_i.
/// The matrix has lower bandwidth 1 and upper bandwidth n and is row-wise
/// diagonally dominant, so Gaussian elimination needs no pivoting and keeps
/// its fill inside an (n*x) x (n+1) band: O(n^2 x) work. A platform whose
/// S_i / B_i overflows yields non-finite chunks.
std::vector<double> unit_makespan_chunks(const platform::StarPlatform& platform,
                                         std::size_t installments) {
  const std::vector<platform::WorkerSpec>& workers = platform.workers();
  const std::size_t n = workers.size();
  const std::size_t vars = n * installments;
  const std::size_t width = n + 1;
  // band[v * width + c] holds the coefficient of t_{v+c}; the -1 on the
  // subdiagonal is implicit. The same matrix also maps the remaining times
  // y_v = 1 - t_v (y_{-1} = 1, y_{>= n*x} = 0) to the right-hand side
  // e_0, and is solved for both: differencing whichever of t and y is
  // smaller keeps chunks accurate when one transfer dominates T.
  std::vector<double> band(vars * width, 0.0);
  std::vector<double> t(vars, 0.0);
  std::vector<double> y(vars, 0.0);
  y[0] = 1.0;
  for (std::size_t v = 0; v < vars; ++v) {
    const double r = workers[v % n].speed / workers[v % n].bandwidth;
    band[v * width] = 1.0 + r;
    if (v + n < vars) {
      band[v * width + n] = -r;
    } else {
      t[v] = r;  // t_{v+n} = T = 1 is known.
    }
  }

  // Forward elimination: row v+1 carries -1 in column v, so adding row v
  // scaled by 1/pivot clears it and fills row v+1's band in place.
  for (std::size_t v = 0; v + 1 < vars; ++v) {
    const double* pivot_row = &band[v * width];
    const double f = 1.0 / pivot_row[0];
    double* next = &band[(v + 1) * width];
    for (std::size_t c = 1; c < width; ++c) next[c - 1] += pivot_row[c] * f;
    t[v + 1] += t[v] * f;
    y[v + 1] += y[v] * f;
  }

  // Back substitution, in place over the two right-hand sides.
  for (std::size_t v = vars; v-- > 0;) {
    const double* row = &band[v * width];
    const std::size_t reach = std::min(n, vars - 1 - v);
    for (std::size_t c = 1; c <= reach; ++c) {
      t[v] -= row[c] * t[v + c];
      y[v] -= row[c] * y[v + c];
    }
    t[v] /= row[0];
    y[v] /= row[0];
  }

  std::vector<double> alpha(vars);
  for (std::size_t v = 0; v < vars; ++v) {
    const double transfer = t[v] <= y[v] ? t[v] - (v > 0 ? t[v - 1] : 0.0)
                                         : (v > 0 ? y[v - 1] : 1.0) - y[v];
    alpha[v] = workers[v % n].bandwidth * transfer;
  }
  return alpha;
}

}  // namespace

MiSchedule solve_multi_installment(const platform::StarPlatform& platform, double w_total,
                                   std::size_t installments) {
  if (installments == 0) throw std::invalid_argument("MI requires at least one installment");
  if (!(w_total > 0.0)) throw std::invalid_argument("MI requires a positive workload");

  const std::size_t n = platform.size();
  const std::size_t x = installments;
  const std::size_t vars = n * x;
  const auto var = [n](std::size_t j, std::size_t i) { return j * n + i; };

  // Zero latency: MI models neither nLat nor cLat nor tLat. Scale the
  // unit-makespan chunks so they sum to w_total.
  std::vector<double> alpha = unit_makespan_chunks(platform, x);
  double sum = 0.0;
  for (double v : alpha) sum += v;
  for (double& v : alpha) v *= w_total / sum;
  const bool solved = sum > 0.0 && std::all_of(alpha.begin(), alpha.end(),
                                                [](double v) { return std::isfinite(v); });

  MiSchedule schedule;
  schedule.installments = x;
  schedule.chunk.assign(x, std::vector<double>(n, 0.0));

  if (!solved) {
    // Singular or non-finite solve (degenerate platform): fall back to a
    // uniform split so the caller still gets a valid, conservative schedule.
    schedule.clamped = true;
    const double uniform = w_total / static_cast<double>(vars);
    for (std::size_t j = 0; j < x; ++j) {
      for (std::size_t i = 0; i < n; ++i) schedule.chunk[j][i] = uniform;
    }
  } else {
    double positive_mass = 0.0;
    for (double& v : alpha) {
      if (v < 0.0) {
        // MI's closed form is infeasible here; clamp and renormalize below.
        if (v < -1e-9 * w_total) schedule.clamped = true;
        v = 0.0;
      }
      positive_mass += v;
    }
    const double scale = positive_mass > 0.0 ? w_total / positive_mass : 0.0;
    for (std::size_t j = 0; j < x; ++j) {
      for (std::size_t i = 0; i < n; ++i) schedule.chunk[j][i] = alpha[var(j, i)] * scale;
    }
  }

  // Predicted makespan under MI's own (zero-latency) model: worker 0's finish.
  double arrival0 = 0.0;
  for (std::size_t v = 0; v <= var(0, std::size_t{0}); ++v) {
    arrival0 += schedule.chunk[v / n][v % n] / platform.worker(v % n).bandwidth;
  }
  double compute0 = 0.0;
  for (std::size_t k = 0; k < x; ++k) compute0 += schedule.chunk[k][0] / platform.worker(0).speed;
  schedule.predicted_makespan = arrival0 + compute0;
  return schedule;
}

std::unique_ptr<sim::SchedulerPolicy> make_mi_policy(const platform::StarPlatform& platform,
                                                     double w_total, std::size_t installments) {
  const MiSchedule schedule = solve_multi_installment(platform, w_total, installments);
  return std::make_unique<StaticSequencePolicy>("MI-" + std::to_string(installments),
                                                schedule.to_plan());
}

}  // namespace rumr::baselines
