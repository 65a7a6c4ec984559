#include "obs/metrics.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rumr::obs {

Histogram::Histogram(std::vector<double> upper_edges) : edges_(std::move(upper_edges)) {
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    if (!(edges_[i] > edges_[i - 1])) {
      throw std::invalid_argument("Histogram edges must be strictly ascending");
    }
  }
  counts_.assign(edges_.size() + 1, 0);
}

Histogram Histogram::exponential(double first_edge, double factor, std::size_t count) {
  if (!(first_edge > 0.0) || !(factor > 1.0)) {
    throw std::invalid_argument("Histogram::exponential needs first_edge > 0 and factor > 1");
  }
  std::vector<double> edges;
  edges.reserve(count);
  double edge = first_edge;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(edge);
    edge *= factor;
  }
  return Histogram(std::move(edges));
}

void Histogram::add(double sample) noexcept {
  if (counts_.empty()) counts_.assign(edges_.size() + 1, 0);
  std::size_t bucket = edges_.size();  // Overflow unless an edge admits it.
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (sample <= edges_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  ++total_;
  sum_ += sample;
  if (total_ == 1 || sample < min_) min_ = sample;
  if (total_ == 1 || sample > max_) max_ = sample;
}

void Histogram::merge(const Histogram& other) {
  if (other.total_ == 0 && other.edges_.empty()) return;
  if (edges_.empty() && total_ == 0) {
    *this = other;
    return;
  }
  if (edges_ != other.edges_) {
    throw std::invalid_argument("Histogram::merge requires identical upper edges");
  }
  if (other.total_ == 0) return;
  if (counts_.empty()) counts_.assign(edges_.size() + 1, 0);
  for (std::size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (total_ == 0 || other.min_ < min_) min_ = other.min_;
  if (total_ == 0 || other.max_ > max_) max_ = other.max_;
  total_ += other.total_;
  sum_ += other.sum_;
}

namespace {

/// JSON number: full precision, non-finite as null (JSON has no inf/nan).
void json_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  std::ostringstream text;
  text.precision(17);
  text << v;
  out << text.str();
}

void json_histogram(std::ostream& out, const Histogram& h) {
  out << "{\"total\":" << h.total() << ",\"sum\":";
  json_number(out, h.sum());
  out << ",\"min\":";
  json_number(out, h.min());
  out << ",\"max\":";
  json_number(out, h.max());
  out << ",\"upper_edges\":[";
  for (std::size_t i = 0; i < h.upper_edges().size(); ++i) {
    if (i > 0) out << ',';
    json_number(out, h.upper_edges()[i]);
  }
  out << "],\"counts\":[";
  for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
    if (i > 0) out << ',';
    out << h.bucket_counts()[i];
  }
  out << "]}";
}

}  // namespace

std::string to_json(const RunMetrics& m) {
  std::ostringstream out;
  out << "{\"makespan\":";
  json_number(out, m.makespan);

  out << ",\"des\":{"
      << "\"events_scheduled\":" << m.des.events_scheduled
      << ",\"events_executed\":" << m.des.events_executed
      << ",\"events_cancelled\":" << m.des.events_cancelled
      << ",\"queue_depth_high_water\":" << m.des.queue_depth_high_water << "}";

  out << ",\"engine\":{"
      << "\"uplink_busy_time\":";
  json_number(out, m.engine.uplink_busy_time);
  out << ",\"uplink_idle_time\":";
  json_number(out, m.engine.uplink_idle_time);
  out << ",\"uplink_utilization\":";
  json_number(out, m.engine.uplink_utilization);
  out << ",\"uplink_transfer_time\":";
  json_number(out, m.engine.uplink_transfer_time);
  out << ",\"downlink_busy_time\":";
  json_number(out, m.engine.downlink_busy_time);
  out << ",\"hol_blocking_time\":";
  json_number(out, m.engine.hol_blocking_time);
  out << ",\"dispatches\":" << m.engine.dispatches
      << ",\"completions\":" << m.engine.completions
      << ",\"redispatches\":" << m.engine.redispatches << ",\"work_dispatched\":";
  json_number(out, m.engine.work_dispatched);
  out << ",\"work_redispatched\":";
  json_number(out, m.engine.work_redispatched);
  out << ",\"mean_worker_utilization\":";
  json_number(out, m.engine.mean_worker_utilization);
  out << ",\"chunk_sizes\":";
  json_histogram(out, m.engine.chunk_sizes);
  out << ",\"compute_durations\":";
  json_histogram(out, m.engine.compute_durations);
  out << ",\"timeout_windows\":";
  json_histogram(out, m.engine.timeout_windows);
  out << ",\"rto_values\":";
  json_histogram(out, m.engine.rto_values);
  out << ",\"workers\":[";
  for (std::size_t w = 0; w < m.engine.workers.size(); ++w) {
    const WorkerSpans& ws = m.engine.workers[w];
    if (w > 0) out << ',';
    out << "{\"compute_time\":";
    json_number(out, ws.compute_time);
    out << ",\"aborted_time\":";
    json_number(out, ws.aborted_time);
    out << ",\"idle_time\":";
    json_number(out, ws.idle_time);
    out << ",\"down_time\":";
    json_number(out, ws.down_time);
    out << ",\"receive_time\":";
    json_number(out, ws.receive_time);
    out << ",\"dispatches\":" << ws.dispatches << ",\"completions\":" << ws.completions << "}";
  }
  out << "]}";

  out << ",\"faults\":{"
      << "\"failures\":" << m.faults.failures << ",\"recoveries\":" << m.faults.recoveries
      << ",\"fencings\":" << m.faults.fencings
      << ",\"false_suspicions\":" << m.faults.false_suspicions
      << ",\"backoff_retries\":" << m.faults.backoff_retries
      << ",\"rejoins\":" << m.faults.rejoins << ",\"chunks_lost\":" << m.faults.chunks_lost
      << ",\"chunks_redispatched\":" << m.faults.chunks_redispatched
      << ",\"messages_lost\":" << m.faults.messages_lost
      << ",\"latency_spikes\":" << m.faults.latency_spikes
      << ",\"degraded_sends\":" << m.faults.degraded_sends
      << ",\"retransmits\":" << m.faults.retransmits << ",\"work_retransmitted\":";
  json_number(out, m.faults.work_retransmitted);
  out << ",\"duplicates_suppressed\":" << m.faults.duplicates_suppressed
      << ",\"checkpoints_banked\":" << m.faults.checkpoints_banked << ",\"work_banked\":";
  json_number(out, m.faults.work_banked);
  out << "}}";
  return out.str();
}

void CacheStats::merge(const CacheStats& other) noexcept {
  lookups += other.lookups;
  hits += other.hits;
  misses += other.misses;
  insertions += other.insertions;
  evictions += other.evictions;
  collisions += other.collisions;
  failed_solves += other.failed_solves;
  entries += other.entries;
  bytes_cached += other.bytes_cached;
}

std::string to_json(const ServeStats& s) {
  std::ostringstream out;
  out << "{\"received\":" << s.received << ",\"admitted\":" << s.admitted
      << ",\"rejected\":" << s.rejected << ",\"shed\":" << s.shed
      << ",\"completed\":" << s.completed
      << ",\"queue_depth_high_water\":" << s.queue_depth_high_water
      << ",\"queries\":" << s.queries << ",\"query_errors\":" << s.query_errors
      << ",\"solves\":" << s.solves << ",\"protocol_errors\":" << s.protocol_errors
      << ",\"plan_cache\":{"
      << "\"lookups\":" << s.plan_cache.lookups << ",\"hits\":" << s.plan_cache.hits
      << ",\"misses\":" << s.plan_cache.misses
      << ",\"insertions\":" << s.plan_cache.insertions
      << ",\"evictions\":" << s.plan_cache.evictions
      << ",\"collisions\":" << s.plan_cache.collisions
      << ",\"failed_solves\":" << s.plan_cache.failed_solves
      << ",\"entries\":" << s.plan_cache.entries
      << ",\"bytes_cached\":" << s.plan_cache.bytes_cached << "}}";
  return out.str();
}

std::string to_json(const JobsStats& s) {
  std::ostringstream out;
  out << "{\"arrived\":" << s.arrived << ",\"admitted\":" << s.admitted
      << ",\"rejected\":" << s.rejected << ",\"shed\":" << s.shed
      << ",\"completed\":" << s.completed << ",\"response_times\":";
  json_histogram(out, s.response_times);
  out << ",\"slowdowns\":";
  json_histogram(out, s.slowdowns);
  out << ",\"queue_waits\":";
  json_histogram(out, s.queue_waits);
  out << ",\"job_sizes\":";
  json_histogram(out, s.job_sizes);
  out << "}";
  return out.str();
}

namespace {

void csv_row(std::ostream& out, const std::string& metric, double value) {
  out << metric << ',';
  std::ostringstream text;
  text.precision(17);
  text << value;
  out << text.str() << '\n';
}

void csv_row(std::ostream& out, const std::string& metric, std::uint64_t value) {
  out << metric << ',' << value << '\n';
}

}  // namespace

void write_csv(std::ostream& out, const RunMetrics& m) {
  out << "metric,value\n";
  csv_row(out, "makespan", m.makespan);
  csv_row(out, "des.events_scheduled", static_cast<std::uint64_t>(m.des.events_scheduled));
  csv_row(out, "des.events_executed", static_cast<std::uint64_t>(m.des.events_executed));
  csv_row(out, "des.events_cancelled", static_cast<std::uint64_t>(m.des.events_cancelled));
  csv_row(out, "des.queue_depth_high_water",
          static_cast<std::uint64_t>(m.des.queue_depth_high_water));
  csv_row(out, "engine.uplink_busy_time", m.engine.uplink_busy_time);
  csv_row(out, "engine.uplink_idle_time", m.engine.uplink_idle_time);
  csv_row(out, "engine.uplink_utilization", m.engine.uplink_utilization);
  csv_row(out, "engine.uplink_transfer_time", m.engine.uplink_transfer_time);
  csv_row(out, "engine.downlink_busy_time", m.engine.downlink_busy_time);
  csv_row(out, "engine.hol_blocking_time", m.engine.hol_blocking_time);
  csv_row(out, "engine.dispatches", static_cast<std::uint64_t>(m.engine.dispatches));
  csv_row(out, "engine.completions", static_cast<std::uint64_t>(m.engine.completions));
  csv_row(out, "engine.redispatches", static_cast<std::uint64_t>(m.engine.redispatches));
  csv_row(out, "engine.work_dispatched", m.engine.work_dispatched);
  csv_row(out, "engine.work_redispatched", m.engine.work_redispatched);
  csv_row(out, "engine.mean_worker_utilization", m.engine.mean_worker_utilization);
  for (std::size_t w = 0; w < m.engine.workers.size(); ++w) {
    const WorkerSpans& ws = m.engine.workers[w];
    const std::string prefix = "worker" + std::to_string(w) + '.';
    csv_row(out, prefix + "compute_time", ws.compute_time);
    csv_row(out, prefix + "aborted_time", ws.aborted_time);
    csv_row(out, prefix + "idle_time", ws.idle_time);
    csv_row(out, prefix + "down_time", ws.down_time);
    csv_row(out, prefix + "receive_time", ws.receive_time);
    csv_row(out, prefix + "dispatches", static_cast<std::uint64_t>(ws.dispatches));
    csv_row(out, prefix + "completions", static_cast<std::uint64_t>(ws.completions));
  }
  csv_row(out, "faults.failures", static_cast<std::uint64_t>(m.faults.failures));
  csv_row(out, "faults.recoveries", static_cast<std::uint64_t>(m.faults.recoveries));
  csv_row(out, "faults.fencings", static_cast<std::uint64_t>(m.faults.fencings));
  csv_row(out, "faults.false_suspicions",
          static_cast<std::uint64_t>(m.faults.false_suspicions));
  csv_row(out, "faults.backoff_retries", static_cast<std::uint64_t>(m.faults.backoff_retries));
  csv_row(out, "faults.rejoins", static_cast<std::uint64_t>(m.faults.rejoins));
  csv_row(out, "faults.chunks_lost", static_cast<std::uint64_t>(m.faults.chunks_lost));
  csv_row(out, "faults.chunks_redispatched",
          static_cast<std::uint64_t>(m.faults.chunks_redispatched));
  csv_row(out, "faults.messages_lost", static_cast<std::uint64_t>(m.faults.messages_lost));
  csv_row(out, "faults.latency_spikes", static_cast<std::uint64_t>(m.faults.latency_spikes));
  csv_row(out, "faults.degraded_sends", static_cast<std::uint64_t>(m.faults.degraded_sends));
  csv_row(out, "faults.retransmits", static_cast<std::uint64_t>(m.faults.retransmits));
  csv_row(out, "faults.work_retransmitted", m.faults.work_retransmitted);
  csv_row(out, "faults.duplicates_suppressed",
          static_cast<std::uint64_t>(m.faults.duplicates_suppressed));
  csv_row(out, "faults.checkpoints_banked",
          static_cast<std::uint64_t>(m.faults.checkpoints_banked));
  csv_row(out, "faults.work_banked", m.faults.work_banked);
}

std::string to_csv(const RunMetrics& m) {
  std::ostringstream out;
  write_csv(out, m);
  return out.str();
}

}  // namespace rumr::obs
