#pragma once

/// \file config_file.hpp
/// Minimal INI-style configuration parser — the substrate for describing
/// platforms and runs in text files (the "practical application execution
/// environment" direction of the paper's section 6: APST reads its platform
/// and application descriptions from files; rumr_cli does the same).
///
/// Format:
///   # comment            ; comment
///   [section name]
///   key = value          # keys are trimmed; values keep interior spaces
///
/// Keys before any section header live in the "" (global) section. Section
/// and key lookups are case-sensitive. Duplicate keys: last one wins.
/// Duplicate sections merge.

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace rumr::config {

/// Parse failure, with a 1-based line number in what().
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed configuration file.
class ConfigFile {
 public:
  /// Parses from text. Throws ConfigError on malformed lines.
  [[nodiscard]] static ConfigFile parse(const std::string& text);

  /// Parses a file from disk. Throws ConfigError if unreadable or malformed.
  [[nodiscard]] static ConfigFile load(const std::string& path);

  /// True if the section exists (possibly empty).
  [[nodiscard]] bool has_section(const std::string& section) const;

  /// All section names, in first-appearance order.
  [[nodiscard]] const std::vector<std::string>& sections() const noexcept { return order_; }

  /// Raw lookup; nullopt when section or key is absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& section,
                                               const std::string& key) const;

  /// Typed lookups with defaults. Throw ConfigError when the value exists
  /// but does not parse as the requested type.
  [[nodiscard]] std::string get_string(const std::string& section, const std::string& key,
                                       const std::string& fallback = "") const;
  [[nodiscard]] double get_double(const std::string& section, const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::size_t get_size(const std::string& section, const std::string& key,
                                     std::size_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& section, const std::string& key,
                              bool fallback) const;

  /// Typed lookups for required keys; throw ConfigError when missing.
  [[nodiscard]] double require_double(const std::string& section, const std::string& key) const;

  /// Keys of a section, in insertion order (empty when absent).
  [[nodiscard]] std::vector<std::string> keys(const std::string& section) const;

 private:
  struct Section {
    std::map<std::string, std::string> values;
    std::vector<std::string> key_order;
  };
  std::map<std::string, Section> sections_;
  std::vector<std::string> order_;
};

/// Trims ASCII whitespace from both ends (exposed for reuse and tests).
[[nodiscard]] std::string trim(const std::string& text);

/// Lower-cases ASCII letters, leaving every other byte as is. Every
/// case-insensitive value (policy names from files and the CLI, the [jobs]
/// and [serve] vocabularies) is folded through this one function.
[[nodiscard]] std::string lower_ascii(std::string text);

}  // namespace rumr::config
