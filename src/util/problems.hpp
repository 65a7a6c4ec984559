#pragma once

/// \file problems.hpp
/// The one layout of a validation failure message. Every validate() in the
/// repo returns its complete list of problems; the entry point that refuses
/// the request joins them under a header line, one "  - <problem>" line each:
///
///   invalid SimOptions:
///     - uplink_channels must be >= 1
///     - output_ratio must be non-negative and finite

#include <string>
#include <string_view>
#include <vector>

namespace rumr::util {

/// `header` followed by "\n  - <problem>" for each problem, in order.
[[nodiscard]] inline std::string join_problems(std::string_view header,
                                               const std::vector<std::string>& problems) {
  std::string joined(header);
  for (const std::string& problem : problems) {
    joined += "\n  - ";
    joined += problem;
  }
  return joined;
}

}  // namespace rumr::util
