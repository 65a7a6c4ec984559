/// \file jobs_demo.cpp
/// Mean slowdown vs offered load: exclusive vs partitioned vs fractional.
///
/// Sweeps the open-system load axis on one Table 1-style platform through the
/// rumr::Sweep facade and prints the mean job slowdown of each
/// platform-sharing policy, with transient worker outages injected into every
/// inner service run. Every repetition is audited by
/// check::audit_service_result (counter ledger, per-job work conservation,
/// share disjointness, Little's law), so this doubles as an end-to-end gate
/// for the multi-job subsystem — the exit code is nonzero when any run fails
/// its audit or strands jobs.

#include <cstddef>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/rumr.hpp"

namespace {

constexpr double kError = 0.2;
constexpr double kMeanSize = 300.0;
constexpr std::size_t kJobs = 60;
constexpr double kMtbf = 1200.0;  ///< Transient outages, MTTR = MTBF/10.

}  // namespace

int main() {
  using namespace rumr;

  const sweep::PlatformConfig config{10, 1.6, 0.3, 0.3};

  const std::vector<double> loads = sweep::load_axis(0.3, 0.9, 0.2);
  const std::vector<jobs::SharingPolicy> policies = {
      jobs::SharingPolicy::kExclusive, jobs::SharingPolicy::kPartitioned,
      jobs::SharingPolicy::kFractional};

  report::TextTable table([&] {
    std::vector<std::string> headers = {"load"};
    for (const jobs::SharingPolicy policy : policies) headers.emplace_back(to_string(policy));
    return headers;
  }());

  bool all_ok = true;
  // load index -> slowdown per policy, collected across the per-policy sweeps.
  std::map<std::size_t, std::vector<double>> rows;
  for (const jobs::SharingPolicy policy : policies) {
    jobs::JobsOptions base;
    base.sharing = policy;
    base.partitions = 2;
    base.stream = jobs::JobStreamSpec::poisson(1.0, kJobs, kMeanSize);
    base.stream.size_dist = jobs::SizeDistribution::kUniform;
    base.stream.size_spread = 0.4;
    base.known_error = kError;
    base.sim = sim::SimOptions::with_error(kError, 1);
    // Repairable outages with MTTR = MTBF/10: availability ~ 91%.
    base.sim.faults = faults::FaultSpec::transient(kMtbf, kMtbf / 10.0);

    try {
      sweep::JobsSweepOptions options;
      options.loads = loads;
      options.repetitions = 1;
      options.base_seed = 0x10B5ULL + static_cast<std::uint64_t>(policy);
      options.base = base;
      Sweep study(options);
      study.platforms() = sweep::wrap_grid({config});
      const std::vector<sweep::JobsSweepCell> cells = study.execute_jobs();
      for (const sweep::JobsSweepCell& cell : cells) {
        if (cell.stats.completed != cell.stats.admitted) {
          std::cerr << "STRANDED JOBS (" << to_string(policy) << ", load=" << cell.load
                    << "): admitted=" << cell.stats.admitted
                    << " completed=" << cell.stats.completed << '\n';
          all_ok = false;
        }
        rows[cell.load_index].push_back(cell.stats.mean_slowdown.mean());
      }
    } catch (const check::CheckError& error) {
      std::cerr << "AUDIT FAILED (" << to_string(policy) << "): " << error.what() << '\n';
      all_ok = false;
      for (std::size_t i = 0; i < loads.size(); ++i) rows[i].push_back(0.0);
    } catch (const sim::SimError& error) {
      std::cerr << "SimError (" << to_string(policy) << "): " << error.what() << '\n';
      all_ok = false;
      for (std::size_t i = 0; i < loads.size(); ++i) rows[i].push_back(0.0);
    }
  }

  for (const auto& [load_index, slowdowns] : rows) {
    table.add_row(std::to_string(loads[load_index]).substr(0, 3), slowdowns, 2);
  }

  std::cout << "Mean slowdown over " << kJobs << " Poisson jobs, mean size " << kMeanSize
            << ", error=" << kError << ", N=" << config.n
            << ", transient faults MTBF=" << kMtbf << "\n\n";
  table.print(std::cout);
  std::cout << "\n(slowdowns grow with offered load; every run is service-audited)\n";
  return all_ok ? 0 : 1;
}
