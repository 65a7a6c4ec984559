#include "config/config_file.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace rumr::config {

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) --end;
  return text.substr(begin, end - begin);
}

std::string lower_ascii(std::string text) {
  for (char& c : text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return text;
}

namespace {

/// Strips a trailing comment that starts with '#' or ';' (no quoting rules:
/// values in this format never contain those characters).
std::string strip_comment(const std::string& line) {
  const std::size_t pos = line.find_first_of("#;");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

[[noreturn]] void fail(std::size_t line_number, const std::string& what) {
  std::ostringstream msg;
  msg << "config line " << line_number << ": " << what;
  throw ConfigError(msg.str());
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile file;
  std::istringstream in(text);
  std::string raw;
  std::string current;  // Global section.
  file.sections_[current];
  file.order_.push_back(current);

  std::size_t line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(line_number, "unterminated section header: " + line);
      current = trim(line.substr(1, line.size() - 2));
      if (current.empty()) fail(line_number, "empty section name");
      if (file.sections_.find(current) == file.sections_.end()) {
        file.sections_[current];
        file.order_.push_back(current);
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(line_number, "expected 'key = value': " + line);
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(line_number, "empty key");
    Section& section = file.sections_[current];
    if (section.values.find(key) == section.values.end()) section.key_order.push_back(key);
    section.values[key] = value;
  }
  return file;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool ConfigFile::has_section(const std::string& section) const {
  return sections_.find(section) != sections_.end();
}

std::optional<std::string> ConfigFile::get(const std::string& section,
                                           const std::string& key) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return std::nullopt;
  const auto kit = sit->second.values.find(key);
  if (kit == sit->second.values.end()) return std::nullopt;
  return kit->second;
}

std::string ConfigFile::get_string(const std::string& section, const std::string& key,
                                   const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

double ConfigFile::get_double(const std::string& section, const std::string& key,
                              double fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') {
    throw ConfigError("[" + section + "] " + key + ": not a number: " + *value);
  }
  return parsed;
}

std::size_t ConfigFile::get_size(const std::string& section, const std::string& key,
                                 std::size_t fallback) const {
  // Return an absent key's fallback directly: a double round-trip would
  // corrupt values above 2^53 (e.g. a SIZE_MAX "unbounded" sentinel).
  if (!get(section, key)) return fallback;
  const double value = get_double(section, key, 0.0);
  if (value < 0.0) throw ConfigError("[" + section + "] " + key + ": must be non-negative");
  return static_cast<std::size_t>(value);
}

bool ConfigFile::get_bool(const std::string& section, const std::string& key,
                          bool fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes" || *value == "on") return true;
  if (*value == "false" || *value == "0" || *value == "no" || *value == "off") return false;
  throw ConfigError("[" + section + "] " + key + ": not a boolean: " + *value);
}

double ConfigFile::require_double(const std::string& section, const std::string& key) const {
  if (!get(section, key)) throw ConfigError("[" + section + "] missing required key: " + key);
  return get_double(section, key, 0.0);
}

std::vector<std::string> ConfigFile::keys(const std::string& section) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return {};
  return sit->second.key_order;
}

}  // namespace rumr::config
