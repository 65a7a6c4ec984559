#include "lint/rule.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

namespace rumr::lint {
namespace {

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

/// Token text at index, or empty when out of range.
[[nodiscard]] std::string_view text_at(const std::vector<Token>& toks, std::size_t i) noexcept {
  return i < toks.size() ? std::string_view(toks[i].text) : std::string_view{};
}

/// True when the identifier at `i` is a free/std call rather than a member:
/// not preceded by `.` or `->`, and a preceding `::` must be `std::`.
[[nodiscard]] bool is_free_or_std_use(const std::vector<Token>& toks, std::size_t i) noexcept {
  if (i == 0) return true;
  const std::string_view prev = text_at(toks, i - 1);
  if (prev == "." || prev == "->") return false;
  if (prev == "::") return i >= 2 && text_at(toks, i - 2) == "std";
  return true;
}

[[nodiscard]] bool is_float_literal(std::string_view num) noexcept {
  if (starts_with(num, "0x") || starts_with(num, "0X")) {
    return num.find('p') != std::string_view::npos || num.find('P') != std::string_view::npos;
  }
  return num.find('.') != std::string_view::npos ||
         num.find('e') != std::string_view::npos || num.find('E') != std::string_view::npos;
}

/// Shared boilerplate: rules differ only in name/rationale/scope/check.
class RuleBase : public Rule {
 public:
  RuleBase(std::string_view name, std::string_view rationale) noexcept
      : name_(name), rationale_(rationale) {}
  [[nodiscard]] std::string_view name() const noexcept final { return name_; }
  [[nodiscard]] std::string_view rationale() const noexcept final { return rationale_; }

 protected:
  void report(const SourceFile& file, int line, std::string message,
              std::vector<Finding>& out) const {
    out.push_back({std::string(name_), file.rel_path, line, std::move(message)});
  }

 private:
  std::string_view name_;
  std::string_view rationale_;
};

// ---------------------------------------------------------------------------
// Rule 1: unordered-container
// ---------------------------------------------------------------------------
class UnorderedContainerRule final : public RuleBase {
 public:
  UnorderedContainerRule() noexcept
      : RuleBase("unordered-container",
                 "Hash-container iteration order is unspecified and varies with "
                 "libstdc++ version, seed mitigation, and insertion history; any "
                 "result or simulation path that iterates one loses byte-identical "
                 "replay. Use std::map/std::vector, or sort before iterating.") {}

  [[nodiscard]] bool applies_to(std::string_view rel_path) const noexcept override {
    return starts_with(rel_path, "src/");
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    constexpr std::array<std::string_view, 4> kBanned = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    for (const Token& tok : file.lexed.tokens) {
      if (tok.kind != TokenKind::kIdentifier) continue;
      if (std::find(kBanned.begin(), kBanned.end(), tok.text) == kBanned.end()) continue;
      report(file, tok.line,
             "std::" + tok.text + " has nondeterministic iteration order", out);
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 2: ambient-randomness
// ---------------------------------------------------------------------------
class AmbientRandomnessRule final : public RuleBase {
 public:
  AmbientRandomnessRule() noexcept
      : RuleBase("ambient-randomness",
                 "Every random draw must flow from a seeded rumr::stats::Rng lane "
                 "so runs replay bit-for-bit; std::random_device, rand()/srand(), "
                 "and the *rand48 family pull entropy (or hidden global state) "
                 "from outside the seed, so two identical configs diverge.") {}

  [[nodiscard]] bool applies_to(std::string_view rel_path) const noexcept override {
    // The RNG-lane factory itself is the one place allowed to own engines.
    return rel_path != "src/stats/rng.cpp" && rel_path != "src/stats/rng.hpp";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    // Flagged wherever they appear (a declaration is as bad as a call).
    constexpr std::array<std::string_view, 6> kAlways = {
        "random_device", "random_shuffle", "drand48", "lrand48", "mrand48", "erand48"};
    // Flagged only as calls, to spare identifiers that merely contain them.
    constexpr std::array<std::string_view, 2> kCalls = {"rand", "srand"};
    const auto& toks = file.lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      if (tok.kind != TokenKind::kIdentifier) continue;
      if (std::find(kAlways.begin(), kAlways.end(), tok.text) != kAlways.end()) {
        report(file, tok.line, tok.text + " bypasses the seeded RNG lanes", out);
        continue;
      }
      if (std::find(kCalls.begin(), kCalls.end(), tok.text) != kCalls.end() &&
          text_at(toks, i + 1) == "(" && is_free_or_std_use(toks, i)) {
        report(file, tok.line,
               tok.text + "() draws from hidden global state outside the RNG lanes", out);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 3: wall-clock
// ---------------------------------------------------------------------------
class WallClockRule final : public RuleBase {
 public:
  WallClockRule() noexcept
      : RuleBase("wall-clock",
                 "Simulated time is the only clock the engine may consult: wall "
                 "time leaks host speed into results and differs every run, so "
                 "nothing src/ or tools/ computes or prints may read it (the "
                 "metrics record included). bench/ is out of scope by design — "
                 "benchmarks measure wall time on purpose.") {}

  [[nodiscard]] bool applies_to(std::string_view rel_path) const noexcept override {
    return starts_with(rel_path, "src/") || starts_with(rel_path, "tools/");
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    constexpr std::array<std::string_view, 11> kClockIds = {
        "system_clock", "steady_clock", "high_resolution_clock", "utc_clock",
        "file_clock",   "gettimeofday", "clock_gettime",         "timespec_get",
        "localtime",    "gmtime",       "mktime"};
    constexpr std::array<std::string_view, 2> kClockCalls = {"time", "clock"};
    const auto& toks = file.lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      if (tok.kind != TokenKind::kIdentifier || tok.preproc) continue;
      if (std::find(kClockIds.begin(), kClockIds.end(), tok.text) != kClockIds.end()) {
        report(file, tok.line, tok.text + " reads the wall clock", out);
        continue;
      }
      if (std::find(kClockCalls.begin(), kClockCalls.end(), tok.text) != kClockCalls.end() &&
          text_at(toks, i + 1) == "(" && is_free_or_std_use(toks, i)) {
        report(file, tok.line, tok.text + "() reads the wall clock", out);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 4: pointer-keyed-container
// ---------------------------------------------------------------------------
class PointerKeyedContainerRule final : public RuleBase {
 public:
  PointerKeyedContainerRule() noexcept
      : RuleBase("pointer-keyed-container",
                 "Ordering by pointer value means ordering by allocator address, "
                 "which changes run to run under ASLR and allocation history; a "
                 "std::map/std::set keyed by a pointer (or a std::less/greater "
                 "over pointers) iterates in a different order every execution. "
                 "Key by a stable id instead.") {}

  [[nodiscard]] bool applies_to(std::string_view) const noexcept override { return true; }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    constexpr std::array<std::string_view, 6> kOrdered = {"map",      "set",  "multimap",
                                                          "multiset", "less", "greater"};
    const auto& toks = file.lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      if (tok.kind != TokenKind::kIdentifier) continue;
      if (std::find(kOrdered.begin(), kOrdered.end(), tok.text) == kOrdered.end()) continue;
      if (!(i >= 2 && text_at(toks, i - 1) == "::" && text_at(toks, i - 2) == "std")) continue;
      if (text_at(toks, i + 1) != "<") continue;
      if (first_template_arg_has_pointer(toks, i + 2)) {
        report(file, tok.line, "std::" + tok.text + " ordered by pointer value", out);
      }
    }
  }

 private:
  /// Scans the first template argument starting at `begin` (just past the
  /// opening '<'); reports whether a '*' appears anywhere inside it.
  [[nodiscard]] static bool first_template_arg_has_pointer(const std::vector<Token>& toks,
                                                           std::size_t begin) noexcept {
    int depth = 1;
    constexpr std::size_t kScanLimit = 256;
    for (std::size_t i = begin; i < toks.size() && i < begin + kScanLimit; ++i) {
      const std::string_view t = toks[i].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth == 0) return false;
      } else if (t == ">>") {
        depth -= 2;
        if (depth <= 0) return false;
      } else if (t == "," && depth == 1) {
        return false;  // End of the key argument.
      } else if (t == "*") {
        return true;
      } else if (t == ";" || t == "{") {
        return false;  // Not a template argument list after all.
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Rule 5: mutable-static
// ---------------------------------------------------------------------------
class MutableStaticRule final : public RuleBase {
 public:
  MutableStaticRule() noexcept
      : RuleBase("mutable-static",
                 "Mutable static state (global, function-local, or a static data "
                 "member) is shared across every run and every sweep::ThreadPool "
                 "worker: it breaks replay isolation between repetitions and is a "
                 "data race under TSan. Use const/constexpr, or thread state "
                 "through explicitly.") {}

  [[nodiscard]] bool applies_to(std::string_view rel_path) const noexcept override {
    return starts_with(rel_path, "src/");
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      if (tok.kind != TokenKind::kIdentifier || tok.text != "static" || tok.preproc) continue;
      if (is_mutable_static_decl(toks, i + 1)) {
        report(file, tok.line,
               "mutable static state (no const/constexpr qualifier)", out);
      }
    }
  }

 private:
  /// Heuristic classifier for the declaration following `static`: scans to
  /// the first top-level terminator. A '(' means a function declaration (or
  /// paren-init, which we accept as the cost of no parse); const/constexpr/
  /// constinit at template depth zero marks immutable state.
  [[nodiscard]] static bool is_mutable_static_decl(const std::vector<Token>& toks,
                                                   std::size_t begin) noexcept {
    int depth = 0;
    constexpr std::size_t kScanLimit = 96;
    for (std::size_t i = begin; i < toks.size() && i < begin + kScanLimit; ++i) {
      const std::string_view t = toks[i].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (depth > 0) --depth;
      } else if (t == ">>") {
        depth = depth >= 2 ? depth - 2 : 0;
      } else if (depth == 0) {
        if (t == "const" || t == "constexpr" || t == "constinit") return false;
        if (t == "(") return false;  // Function (or paren-init) — not flagged.
        if (t == ";" || t == "=" || t == "{") return true;
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Rule 6: float-equality
// ---------------------------------------------------------------------------
class FloatEqualityRule final : public RuleBase {
 public:
  FloatEqualityRule() noexcept
      : RuleBase("float-equality",
                 "Exact ==/!= on floating-point values in scheduling and "
                 "simulation code is usually a latent bug: two mathematically "
                 "equal chunk sizes or timestamps can differ in the last ulp "
                 "depending on evaluation order, flipping a branch and the whole "
                 "downstream schedule. Compare against a tolerance. (Heuristic: "
                 "the lint flags comparisons against floating literals; it "
                 "cannot see the types of variables.)") {}

  [[nodiscard]] bool applies_to(std::string_view rel_path) const noexcept override {
    return starts_with(rel_path, "src/sim/") || starts_with(rel_path, "src/jobs/") ||
           starts_with(rel_path, "src/core/") || starts_with(rel_path, "src/baselines/");
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      if (tok.kind != TokenKind::kPunct || (tok.text != "==" && tok.text != "!=")) continue;
      const bool prev_float =
          i >= 1 && toks[i - 1].kind == TokenKind::kNumber && is_float_literal(toks[i - 1].text);
      const bool next_float = i + 1 < toks.size() && toks[i + 1].kind == TokenKind::kNumber &&
                              is_float_literal(toks[i + 1].text);
      if (prev_float || next_float) {
        report(file, tok.line,
               "exact floating-point " + tok.text + " against a literal", out);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule 7: pragma-once
// ---------------------------------------------------------------------------
class PragmaOnceRule final : public RuleBase {
 public:
  PragmaOnceRule() noexcept
      : RuleBase("pragma-once",
                 "Every header must open with #pragma once (before any other "
                 "token): a missing guard turns a refactor that adds a second "
                 "include path into an ODR violation, and mixed guard styles "
                 "defeat the header self-sufficiency gate.") {}

  [[nodiscard]] bool applies_to(std::string_view rel_path) const noexcept override {
    return ends_with(rel_path, ".hpp") || ends_with(rel_path, ".h");
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.lexed.tokens;
    const bool ok = toks.size() >= 3 && toks[0].text == "#" && toks[1].text == "pragma" &&
                    toks[2].text == "once";
    if (!ok) {
      report(file, toks.empty() ? 1 : toks[0].line,
             "header does not open with #pragma once", out);
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> make_default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<UnorderedContainerRule>());
  rules.push_back(std::make_unique<AmbientRandomnessRule>());
  rules.push_back(std::make_unique<WallClockRule>());
  rules.push_back(std::make_unique<PointerKeyedContainerRule>());
  rules.push_back(std::make_unique<MutableStaticRule>());
  rules.push_back(std::make_unique<FloatEqualityRule>());
  rules.push_back(std::make_unique<PragmaOnceRule>());
  return rules;
}

}  // namespace rumr::lint
