#include "check/merge_audit.hpp"

#include <cmath>
#include <sstream>

namespace rumr::check {

namespace {

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::max(std::abs(b), 1.0));
}

void violate(AuditReport& report, const std::string& label, const char* what, double merged,
             double serial) {
  std::ostringstream out;
  out.precision(17);
  out << label << ": " << what << " merged=" << merged << " serial=" << serial;
  report.violations.push_back(out.str());
}

void violate_count(AuditReport& report, const std::string& label, const char* what,
                   std::uint64_t merged, std::uint64_t serial) {
  std::ostringstream out;
  out << label << ": " << what << " merged=" << merged << " serial=" << serial;
  report.violations.push_back(out.str());
}

}  // namespace

void audit_accumulator_merge(const std::string& label, const stats::Accumulator& merged,
                             const stats::Accumulator& serial, AuditReport& report,
                             const MergeAuditOptions& options) {
  const double rel = options.rel_tolerance;
  if (merged.count() != serial.count()) {
    violate_count(report, label, "count", merged.count(), serial.count());
    return;  // Different samples: the moment comparisons below are meaningless.
  }
  if (merged.count() == 0) return;
  if (!close_rel(merged.mean(), serial.mean(), rel)) {
    violate(report, label, "mean", merged.mean(), serial.mean());
  }
  if (!close_rel(merged.variance(), serial.variance(), rel)) {
    violate(report, label, "variance", merged.variance(), serial.variance());
  }
  if (!close_rel(merged.min(), serial.min(), rel)) {
    violate(report, label, "min", merged.min(), serial.min());
  }
  if (!close_rel(merged.max(), serial.max(), rel)) {
    violate(report, label, "max", merged.max(), serial.max());
  }
}

void audit_histogram_merge(const std::string& label, const obs::Histogram& merged,
                           const obs::Histogram& serial, AuditReport& report,
                           const MergeAuditOptions& options) {
  const double rel = options.rel_tolerance;
  if (merged.upper_edges() != serial.upper_edges()) {
    report.violations.push_back(label + ": bucket edges differ");
    return;
  }
  if (merged.total() != serial.total()) {
    violate_count(report, label, "total", merged.total(), serial.total());
    return;
  }
  if (merged.bucket_counts() != serial.bucket_counts()) {
    report.violations.push_back(label + ": bucket counts differ");
  }
  if (merged.total() == 0) return;
  if (!close_rel(merged.sum(), serial.sum(), rel)) {
    violate(report, label, "sum", merged.sum(), serial.sum());
  }
  if (!close_rel(merged.min(), serial.min(), rel)) {
    violate(report, label, "min", merged.min(), serial.min());
  }
  if (!close_rel(merged.max(), serial.max(), rel)) {
    violate(report, label, "max", merged.max(), serial.max());
  }
}

void audit_sketch_merge(const std::string& label, const obs::QuantileSketch& merged,
                        const obs::QuantileSketch& serial, AuditReport& report,
                        const MergeAuditOptions& options) {
  const double rel = options.rel_tolerance;
  if (!merged.same_comb(serial)) {
    report.violations.push_back(label + ": sketch combs differ");
    return;
  }
  if (merged.count() != serial.count()) {
    violate_count(report, label, "count", merged.count(), serial.count());
    return;
  }
  if (merged.bucket_counts() != serial.bucket_counts()) {
    report.violations.push_back(label + ": bucket counts differ");
  }
  if (merged.count() == 0) return;
  if (!close_rel(merged.sum(), serial.sum(), rel)) {
    violate(report, label, "sum", merged.sum(), serial.sum());
  }
  if (!close_rel(merged.min(), serial.min(), rel)) {
    violate(report, label, "min", merged.min(), serial.min());
  }
  if (!close_rel(merged.max(), serial.max(), rel)) {
    violate(report, label, "max", merged.max(), serial.max());
  }
}

}  // namespace rumr::check
