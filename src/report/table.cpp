#include "report/table.hpp"

#include <cassert>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace rumr::report {

std::string format_double(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  alignment_.assign(headers_.size(), Align::kRight);
  if (!alignment_.empty()) alignment_[0] = Align::kLeft;
}

void TextTable::add_row(std::vector<std::string> cells) {
  assert(cells.size() <= headers_.size() && "row has more cells than columns");
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::add_row(const std::string& head, const std::vector<double>& values,
                        int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(head);
  for (double v : values) cells.push_back(format_double(v, precision));
  add_row(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto emit_row = [&](std::ostringstream& out, const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      const std::size_t pad = widths[c] - cell.size();
      if (c > 0) out << "  ";
      if (alignment_[c] == Align::kRight) out << std::string(pad, ' ') << cell;
      else out << cell << std::string(pad, ' ');
    }
    out << '\n';
  };

  std::ostringstream out;
  emit_row(out, headers_);
  std::size_t total = headers_.empty() ? 0 : 2 * (headers_.size() - 1);
  for (std::size_t w : widths) total += w;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(out, row);
  return out.str();
}

void TextTable::print(std::ostream& out) const { out << to_string(); }

}  // namespace rumr::report
