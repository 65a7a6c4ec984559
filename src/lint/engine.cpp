#include "lint/engine.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "lint/file_set.hpp"
#include "lint/report.hpp"

namespace rumr::lint {
namespace {

[[nodiscard]] std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

constexpr std::string_view kMarker = "rumr-lint:";

}  // namespace

SourceFile SourceFile::from_string(std::string rel_path, std::string content) {
  SourceFile file;
  file.rel_path = std::move(rel_path);
  file.content = std::move(content);
  file.lexed = lex(file.content);
  return file;
}

SourceFile SourceFile::from_disk(const std::string& abs_path, std::string rel_path) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) throw std::runtime_error("rumr_lint: cannot read " + abs_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_string(std::move(rel_path), std::move(buf).str());
}

Engine::Engine() : rules_(make_default_rules()) {}

bool Engine::is_known_rule(std::string_view name) const noexcept {
  return std::any_of(rules_.begin(), rules_.end(),
                     [&](const auto& r) { return r->name() == name; });
}

std::vector<Suppression> Engine::parse_suppressions(const SourceFile& file,
                                                    std::vector<Finding>& hygiene_out) {
  std::vector<Suppression> sups;
  for (const Comment& comment : file.lexed.comments) {
    std::string_view text = trim(comment.text);
    if (text.substr(0, kMarker.size()) != kMarker) continue;
    text = trim(text.substr(kMarker.size()));

    auto malformed = [&](std::string_view why) {
      hygiene_out.push_back({std::string(kSuppressionHygieneRule), file.rel_path, comment.line,
                             "malformed rumr-lint comment (" + std::string(why) +
                                 "); expected: rumr-lint: allow(<rule>) <reason>"});
    };
    if (text.substr(0, 6) != "allow(") {
      malformed("missing allow(...)");
      continue;
    }
    const std::size_t close = text.find(')');
    if (close == std::string_view::npos) {
      malformed("unterminated allow(");
      continue;
    }
    Suppression sup;
    sup.rule = std::string(trim(text.substr(6, close - 6)));
    sup.comment_line = comment.line;
    sup.target_line = comment.trailing ? comment.line : comment.line + 1;
    sup.has_reason = !trim(text.substr(close + 1)).empty();
    sups.push_back(std::move(sup));
  }
  return sups;
}

std::vector<Finding> Engine::lint_file(const SourceFile& file) const {
  std::vector<Finding> findings;
  std::vector<Suppression> sups = parse_suppressions(file, findings);

  // Hygiene pass one: every suppression must name a real rule and say why.
  for (const Suppression& sup : sups) {
    if (!is_known_rule(sup.rule)) {
      findings.push_back({std::string(kSuppressionHygieneRule), file.rel_path, sup.comment_line,
                          "suppression names unknown rule '" + sup.rule + "'"});
    }
    if (!sup.has_reason) {
      findings.push_back({std::string(kSuppressionHygieneRule), file.rel_path, sup.comment_line,
                          "suppression of '" + sup.rule + "' gives no reason"});
    }
  }

  // Rule pass, with suppression filtering. A suppression matches findings of
  // its rule on its target line; matching marks it used even when it lacks a
  // reason (the missing reason is already its own finding above).
  std::vector<Finding> raw;
  for (const auto& rule : rules_) {
    if (!rule->applies_to(file.rel_path)) continue;
    rule->check(file, raw);
  }
  for (Finding& f : raw) {
    bool suppressed = false;
    for (Suppression& sup : sups) {
      if (sup.rule == f.rule && sup.target_line == f.line) {
        sup.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) findings.push_back(std::move(f));
  }

  // Hygiene pass two: a suppression that suppressed nothing is stale.
  for (const Suppression& sup : sups) {
    if (!sup.used && is_known_rule(sup.rule)) {
      findings.push_back(
          {std::string(kSuppressionHygieneRule), file.rel_path, sup.comment_line,
           "stale suppression: no '" + sup.rule + "' finding on line " +
               std::to_string(sup.target_line) + " to suppress"});
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

int run(const Options& opts, std::ostream& out, std::ostream& err) {
  const Engine engine;
  if (opts.list_rules) {
    print_rule_catalog(engine, out);
    return 0;
  }

  std::vector<std::string> rel_paths;
  std::string source_note;
  try {
    if (!opts.paths.empty()) {
      rel_paths = opts.paths;
      std::sort(rel_paths.begin(), rel_paths.end());
      rel_paths.erase(std::unique(rel_paths.begin(), rel_paths.end()), rel_paths.end());
      source_note = "explicit file list";
    } else {
      rel_paths = collect_files(opts.root, opts.compile_commands, &source_note);
    }
  } catch (const std::exception& ex) {
    err << "rumr_lint: " << ex.what() << "\n";
    return 2;
  }
  if (rel_paths.empty()) {
    err << "rumr_lint: no files to lint under '" << opts.root << "'\n";
    return 2;
  }

  std::vector<Finding> findings;
  for (const std::string& rel : rel_paths) {
    SourceFile file;
    try {
      file = SourceFile::from_disk(opts.root + "/" + rel, rel);
    } catch (const std::exception& ex) {
      err << ex.what() << "\n";
      return 2;
    }
    std::vector<Finding> per_file = engine.lint_file(file);
    findings.insert(findings.end(), std::make_move_iterator(per_file.begin()),
                    std::make_move_iterator(per_file.end()));
  }

  if (!opts.write_baseline.empty()) {
    if (!write_baseline(findings, opts.write_baseline, err)) return 2;
    out << "rumr_lint: wrote baseline with " << findings.size() << " finding(s) to "
        << opts.write_baseline << "\n";
    return 0;
  }

  std::size_t baselined = 0;
  if (!opts.baseline.empty()) {
    std::vector<std::string> keys;
    if (!load_baseline(opts.baseline, keys, err)) return 2;
    const std::size_t before = findings.size();
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return std::binary_search(keys.begin(), keys.end(),
                                                              finding_key(f));
                                  }),
                   findings.end());
    baselined = before - findings.size();
  }

  if (opts.json) {
    print_json(findings, rel_paths.size(), out);
  } else {
    print_text(findings, out);
    out << "rumr_lint: " << findings.size() << " finding(s) over " << rel_paths.size()
        << " file(s) [" << source_note << "]";
    if (baselined > 0) out << ", " << baselined << " baselined";
    out << "\n";
  }
  return (!findings.empty() && opts.error_exit) ? 1 : 0;
}

}  // namespace rumr::lint
