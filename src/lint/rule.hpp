#pragma once

/// \file rule.hpp
/// Rule interface and finding record for the determinism lint.
///
/// Every rule carries a machine-readable name (the suppression key), a
/// rationale explaining *why* the pattern threatens byte-identical replay,
/// and a path predicate restricting where it applies. Rules see a lexed
/// SourceFile and append Findings; suppression filtering happens in the
/// engine, not in rules.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace rumr::lint {

struct Finding {
  std::string rule;
  std::string file;  ///< Repo-relative path, forward slashes.
  int line = 0;
  std::string message;
};

/// One lexed source file. `rel_path` is relative to the repo root with
/// forward slashes — rule applicability and reports both key off it.
struct SourceFile {
  std::string rel_path;
  std::string content;
  LexResult lexed;

  [[nodiscard]] static SourceFile from_string(std::string rel_path, std::string content);
  /// Throws std::runtime_error when the file cannot be read.
  [[nodiscard]] static SourceFile from_disk(const std::string& abs_path, std::string rel_path);
};

class Rule {
 public:
  virtual ~Rule() = default;
  Rule() = default;
  Rule(const Rule&) = delete;
  Rule& operator=(const Rule&) = delete;

  /// Stable kebab-case identifier used in reports and allow() suppressions.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Why violating this rule breaks determinism/reproducibility.
  [[nodiscard]] virtual std::string_view rationale() const noexcept = 0;
  [[nodiscard]] virtual bool applies_to(std::string_view rel_path) const noexcept = 0;
  virtual void check(const SourceFile& file, std::vector<Finding>& out) const = 0;
};

/// The engine-level suppression-hygiene pseudo-rule: reported like any other
/// rule but implemented inside the engine and deliberately not suppressible.
inline constexpr std::string_view kSuppressionHygieneRule = "suppression-hygiene";
inline constexpr std::string_view kSuppressionHygieneRationale =
    "Suppressions are part of the determinism contract: an allow() naming an "
    "unknown rule silently enforces nothing, a reasonless one hides intent, "
    "and a stale one outlives the code it excused and masks future findings.";

/// The full registry: the seven token-level rules, in report order.
[[nodiscard]] std::vector<std::unique_ptr<Rule>> make_default_rules();

}  // namespace rumr::lint
