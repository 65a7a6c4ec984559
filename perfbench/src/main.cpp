// Repository benchmark program.
//
//   rumr_perfbench --workload <grid-latency|grid-zero-latency|serve-zipf>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Sweep threads and closed-loop clients number the CPUs the process may run
// on (its affinity mask, which taskset and cgroup cpusets narrow).
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) replay the same inputs serially with spans around every layer
// call and print the per-layer metrics. Every run checks its outputs. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over exec, so
  // it would report the launching process's peak when that is the larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // In kB.
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // Resets VmHWM to the current resident set.
  clear_refs.flush();
  if (!clear_refs) {
    std::cerr << "rumr_perfbench: warning: could not reset the peak resident set; "
                 "peak_rss_mb covers the whole process\n";
  }
}

std::uint64_t InputRng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  InputRng rng(a ^ (b * 0x9e3779b97f4a7c15ULL) ^ (c * 0xc2b2ae3d27d4eb4fULL));
  return rng.next();
}

void Digest::bytes(std::string_view data) {
  u64(data.size());  // Length prefix keeps adjacent fields from running together.
  for (const char ch : data) {
    hash_ ^= static_cast<unsigned char>(ch);
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::f64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  u64(bits);
}

std::uint32_t SpanLog::open(std::string_view name, std::uint32_t parent, std::uint64_t request,
                            Clock::time_point start) {
  if (spans_.size() >= kMaxKept) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count();
  spans_.push_back(span);
  return span.id;
}

void SpanLog::close(std::uint32_t id, std::string_view name, Clock::time_point start,
                    Clock::time_point end, std::int64_t nested_ns) {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  auto it = totals_.find(name);
  if (it == totals_.end()) it = totals_.emplace(std::string(name), Total{}).first;
  it->second.count += 1;
  it->second.ns += ns;
  it->second.nested_ns += nested_ns;
  if (id != 0) {
    Span& span = spans_[id - 1];
    span.end_ns = span.start_ns + ns;
    span.nested_ns = nested_ns;
  }
}

SpanLog::Total SpanLog::total(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? Total{} : it->second;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"dropped\":" << dropped_ << ",\"totals\":{";
  bool first = true;
  for (const auto& [name, total] : totals_) {
    out << (first ? "" : ",") << '"' << name << "\":{\"count\":" << total.count
        << ",\"ns\":" << total.ns << ",\"nested_ns\":" << total.nested_ns << '}';
    first = false;
  }
  out << "},\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"nested_ns\":" << s.nested_ns << '}';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::optional<rumr::sim::Dispatch> TimedPolicy::next_dispatch(
    const rumr::sim::MasterContext& ctx) {
  const auto start = Clock::now();
  auto dispatch = inner_.next_dispatch(ctx);
  ns_ += nanos_since(start);
  return dispatch;
}

void TimedPolicy::on_chunk_completed(const rumr::sim::MasterContext& ctx,
                                     const rumr::sim::CompletionInfo& info) {
  const auto start = Clock::now();
  inner_.on_chunk_completed(ctx, info);
  ns_ += nanos_since(start);
}

void TimedPolicy::on_worker_down(const rumr::sim::MasterContext& ctx, std::size_t worker) {
  const auto start = Clock::now();
  inner_.on_worker_down(ctx, worker);
  ns_ += nanos_since(start);
}

void TimedPolicy::on_worker_up(const rumr::sim::MasterContext& ctx, std::size_t worker) {
  const auto start = Clock::now();
  inner_.on_worker_up(ctx, worker);
  ns_ += nanos_since(start);
}

std::optional<rumr::des::SimTime> TimedPolicy::next_poll_time() const {
  const auto start = Clock::now();
  auto poll = inner_.next_poll_time();
  ns_ += nanos_since(start);
  return poll;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rumr_perfbench: " << why
            << "\nusage: rumr_perfbench --workload <grid-latency|grid-zero-latency|serve-zipf>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n";
  std::exit(2);
}

/// CPUs in this process's affinity mask.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

Options parse_options(int argc, char** argv) {
  Options options;
  options.threads = usable_cpus();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

std::string format_number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse_options(argc, argv);
  Result result;
  try {
    if (options.workload == "grid-latency") {
      run_grid_workload(options, /*zero_latency=*/false, result);
    } else if (options.workload == "grid-zero-latency") {
      run_grid_workload(options, /*zero_latency=*/true, result);
    } else if (options.workload == "serve-zipf") {
      run_serve_workload(options, result);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "rumr_perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  for (const auto& [name, value] : result.metrics) {
    if (!std::isfinite(value.first)) result.problems.push_back("metric " + name + " is not finite");
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "rumr_perfbench: CHECK FAILED: " << problem << "\n";
  }
  const bool correct = result.problems.empty();

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    std::cout << "  " << name << " = " << format_number(value.first) << " " << value.second
              << "\n";
    line << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << (std::isfinite(value.first) ? format_number(value.first) : "0") << ", \"unit\": \""
         << value.second << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
