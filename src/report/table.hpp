#pragma once

/// \file table.hpp
/// Aligned plain-text tables for reproducing the paper's Tables 2 and 3 in
/// terminal output.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace rumr::report {

/// Column alignment.
enum class Align : unsigned char { kLeft, kRight };

/// Simple fixed-grid text table.
class TextTable {
 public:
  /// Creates a table with the given column headers (all right-aligned except
  /// the first, matching the paper's layout).
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; missing trailing cells render empty, extra cells are an
  /// error (assert).
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  void add_row(const std::string& head, const std::vector<double>& values, int precision = 2);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const noexcept { return headers_.size(); }

  /// Renders with a header separator and column padding.
  [[nodiscard]] std::string to_string() const;
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared by report pieces).
[[nodiscard]] std::string format_double(double value, int precision = 2);

}  // namespace rumr::report
