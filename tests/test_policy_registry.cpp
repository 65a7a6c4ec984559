// Tests for the policy registry (config/policy_registry.hpp): the one name
// table behind config::make_policy, sweep::algorithm and the line-ups,
// JobsOptions::validate, and the Sweep/Race name-based line-ups.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "api/rumr.hpp"
#include "config/config_file.hpp"
#include "config/policy_registry.hpp"
#include "config/run_description.hpp"
#include "jobs/job_manager.hpp"
#include "platform/platform.hpp"
#include "sweep/scheduler_factory.hpp"

namespace rumr {
namespace {

platform::StarPlatform small_platform() {
  return platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
}

bool mentions(const std::vector<std::string>& problems, const std::string& needle) {
  for (const std::string& p : problems) {
    if (p.find(needle) != std::string::npos) return true;
  }
  return false;
}

struct VocabularyCase {
  const char* name;
  bool accepted;
};

// Every entry point that takes a policy name must agree on each of these.
constexpr VocabularyCase kVocabulary[] = {
    {"rumr", true},
    {"MI-2", false},  // Keys are case-sensitive (run files and rumr_cli fold them first).
    {"mi-", false},
    {"mi-0", false},
    {"mi-00", false},
    {"mi-3x", false},
    {"mi-18446744073709551617", false},  // Overflows 64 bits.
    {"mi-64", true},
    {"mi-65", false},          // Above the family's bound.
    {"mi-4294967296", false},  // Would size a band of N·2^32 rows.
    {"rumr-70", true},
    {"rumr-101", false},
    {"quantum-annealing", false},
};

TEST(PolicyRegistry, EveryEntryPointAgreesOnTheVocabulary) {
  const platform::StarPlatform platform = small_platform();
  for (const VocabularyCase& c : kVocabulary) {
    SCOPED_TRACE(c.name);

    if (c.accepted) {
      EXPECT_NE(config::make_policy(c.name, platform, 100.0, 0.1), nullptr);
    } else {
      EXPECT_THROW((void)config::make_policy(c.name, platform, 100.0, 0.1),
                   config::ConfigError);
    }

    jobs::JobsOptions jobs_options;
    jobs_options.algorithm = c.name;
    EXPECT_EQ(jobs_options.validate(platform.size()).empty(), c.accepted);

    rumr::Sweep sweep;
    EXPECT_NO_THROW(sweep.policies(std::vector<std::string>{c.name}));
    EXPECT_EQ(mentions(sweep.validate(), std::string("policy \"") + c.name + "\""),
              !c.accepted);

    rumr::Race race;  // Defaults are executable, so only the name can fail.
    EXPECT_NO_THROW(race.policies(std::vector<std::string>{c.name}));
    EXPECT_EQ(race.validate().empty(), c.accepted);
  }
}

TEST(PolicyRegistry, RejectionsAreConfigErrorsNamingTheKey) {
  for (const char* key : {"mi-", "mi-0", "mi-3x", "mi-+3", "mi--1", "mi-65", "mi-4294967296",
                          "mi-18446744073709551616", "rumr-101", "rumr-", "rumr-5.5", "RUMR",
                          " rumr", "frobnicate"}) {
    try {
      (void)config::resolve_policy(key);
      ADD_FAILURE() << key << " resolved";
    } catch (const config::ConfigError& error) {
      EXPECT_EQ(std::string(error.what()).rfind(std::string("unknown algorithm: ") + key, 0), 0u)
          << error.what();
    }
  }
}

TEST(PolicyRegistry, FamiliesParseTheirParameterOnceAndLabelIt) {
  EXPECT_EQ(config::resolve_policy("mi-1").param, 1u);
  EXPECT_EQ(config::resolve_policy("mi-64").param, 64u);
  EXPECT_THROW((void)config::resolve_policy("mi-18446744073709551615"), config::ConfigError);
  EXPECT_EQ(config::resolve_policy("rumr-0").display, "RUMR-0");
  EXPECT_EQ(config::resolve_policy("rumr-100").display, "RUMR-100");
  EXPECT_EQ(config::resolve_policy("mi-02").display, "MI-2");

  // Fixed keys win over the rumr-<pct> family that shares their prefix.
  EXPECT_EQ(config::resolve_policy("rumr-adaptive").row->key, "rumr-adaptive");
  EXPECT_EQ(config::resolve_policy("rumr-inorder").row->key, "rumr-inorder");

  EXPECT_EQ(sweep::algorithm("rumr").name, "RUMR");
  EXPECT_EQ(sweep::algorithm("mi-3").name, "MI-3");
  EXPECT_EQ(sweep::algorithm("rumr-80").name, "RUMR-80");
  EXPECT_EQ(sweep::algorithm("wf").name, "WF");
  EXPECT_THROW((void)sweep::algorithm("mi-0"), config::ConfigError);
}

TEST(PolicyRegistry, EveryRowHasOneExampleThatResolvesToIt) {
  const std::vector<std::string> keys = config::example_policy_keys();
  ASSERT_EQ(keys.size(), config::policy_rows().size());
  std::set<std::string> displays;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const config::ResolvedPolicy resolved = config::resolve_policy(keys[i]);
    EXPECT_EQ(resolved.row, &config::policy_rows()[i]) << keys[i];
    EXPECT_TRUE(displays.insert(resolved.display).second) << "duplicate " << resolved.display;
  }
}

TEST(PolicyRegistry, LineUpsKeepTheirDisplayNamesAndOrder) {
  const auto names = [](const std::vector<sweep::AlgorithmSpec>& specs) {
    std::vector<std::string> out;
    for (const sweep::AlgorithmSpec& spec : specs) out.push_back(spec.name);
    return out;
  };
  EXPECT_EQ(names(sweep::paper_competitors()),
            (std::vector<std::string>{"RUMR", "UMR", "MI-1", "MI-2", "MI-3", "MI-4", "Factoring"}));
  EXPECT_EQ(names(sweep::extended_competitors()),
            (std::vector<std::string>{"RUMR", "UMR", "MI-1", "MI-2", "MI-3", "MI-4", "Factoring",
                                      "FSC"}));
  EXPECT_EQ(names(sweep::loop_family_competitors()),
            (std::vector<std::string>{"RUMR", "Factoring", "WF", "GSS", "TSS", "FSC"}));
  EXPECT_EQ(names(sweep::racing_competitors()),
            (std::vector<std::string>{"RUMR", "RUMR-50", "RUMR-60", "RUMR-70", "RUMR-80",
                                      "RUMR-90", "UMR", "MI-2", "Factoring", "FSC"}));
}

TEST(PolicyRegistry, NameBasedSweepLabelsCellsWithTheDisplayName) {
  rumr::Sweep sweep(sweep::SweepOptions{.errors = {0.0}, .repetitions = 1, .w_total = 100.0});
  sweep.platforms() = sweep::wrap_grid({{4, 1.5, 0.1, 0.05}});
  sweep.policies(std::vector<std::string>{"rumr", "mi-2"});
  std::vector<std::string> labels;
  for (const sweep::SweepCell& cell : sweep.execute()) labels.push_back(cell.algorithm);
  EXPECT_EQ(labels, (std::vector<std::string>{"RUMR", "MI-2"}));
}

}  // namespace
}  // namespace rumr
