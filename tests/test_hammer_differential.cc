/**
 * @file
 * Differential tests of the soundness check: the production
 * gen::soundnessCheck (the spec lowered without litmus text, ceiling
 * from the candidate count, explore first, then an outcome-directed
 * witness search) against the test-only exhaustive reference
 * (reference_soundness.hh), which parses the rendered source. On the first 2,000
 * random-mode seeds and on the whole cycle inventory, under the default
 * budget and under a candidate ceiling small enough to skip some seeds,
 * both must return the same outcome, violating keys and features. The
 * witness search must also leave exactly a forbidden outcome
 * unwitnessed.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "axiomatic/enumerate.hh"
#include "gen/hammer.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "operational/explorer.hh"
#include "reference_soundness.hh"

namespace rex::gen {
namespace {

/** How many seeds of each outcome the reference reported. */
struct Tally {
    std::size_t sound = 0;
    std::size_t skipped = 0;
    std::size_t violations = 0;
};

void
expectSameResult(const GeneratedTest &test, const HammerConfig &config,
                 const std::string &what, Tally &tally)
{
    const SeedResult fast = soundnessCheck(test.spec, config);
    const SeedResult ref = reference::soundnessCheck(test, config);
    EXPECT_EQ(fast.outcome, ref.outcome) << what;
    EXPECT_EQ(fast.violating, ref.violating) << what;
    EXPECT_EQ(fast.features.toString(), ref.features.toString()) << what;
    switch (ref.outcome) {
      case SeedOutcome::Sound: ++tally.sound; break;
      case SeedOutcome::Skipped: ++tally.skipped; break;
      case SeedOutcome::Violation: ++tally.violations; break;
    }
}

Tally
compareRandomSeeds(const HammerConfig &config)
{
    Tally tally;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        expectSameResult(generate(seed, config.gen), config,
                         "random seed " + std::to_string(seed), tally);
    }
    return tally;
}

Tally
compareCycleInventory(HammerConfig config)
{
    config.mode = Mode::Cycle;
    Hammer hammer(config);
    Tally tally;
    for (std::uint64_t i = 0; i < hammer.inventorySize(); ++i) {
        expectSameResult(hammer.testForSeed(i), config,
                         "cycle " + std::to_string(i), tally);
    }
    return tally;
}

TEST(HammerDifferential, RandomSeeds)
{
    Tally tally = compareRandomSeeds(HammerConfig());
    EXPECT_GT(tally.sound, 0u);
}

TEST(HammerDifferential, CycleInventory)
{
    Tally tally = compareCycleInventory(HammerConfig());
    EXPECT_GT(tally.sound, 0u);
}

TEST(HammerDifferential, SmallCandidateCeiling)
{
    // Ceilings this low skip part of each seed set (cycle tests have
    // 4 to 24 candidates), so the up-front ceiling decision is held to
    // the walk that trips it.
    HammerConfig config;
    config.budget.maxCandidates = 40;
    Tally random = compareRandomSeeds(config);
    EXPECT_GT(random.skipped, 0u);
    EXPECT_GT(random.sound, 0u);
    config.budget.maxCandidates = 12;
    Tally cycle = compareCycleInventory(config);
    EXPECT_GT(cycle.skipped, 0u);
    EXPECT_GT(cycle.sound, 0u);
}

TEST(HammerDifferential, CeilingIsInclusive)
{
    // A test with exactly maxCandidates candidates is checked; one more
    // candidate than the ceiling skips it.
    const GeneratedTest test = generate(3, GenConfig());
    const LitmusTest parsed = parseLitmus(test.source);
    const std::size_t candidates = CandidateEnumerator(parsed).count();
    ASSERT_GT(candidates, 1u);

    HammerConfig config;
    Tally tally;
    config.budget.maxCandidates = candidates;
    expectSameResult(test, config, "ceiling == count", tally);
    EXPECT_EQ(soundnessCheck(test.spec, config).outcome, SeedOutcome::Sound);
    config.budget.maxCandidates = candidates - 1;
    expectSameResult(test, config, "ceiling == count - 1", tally);
    EXPECT_EQ(soundnessCheck(test.spec, config).outcome,
              SeedOutcome::Skipped);
}

TEST(HammerDifferential, ForbiddenOutcomeStaysUnwitnessed)
{
    // MP+dmb.sys's forbidden final state, next to the outcomes the
    // explorer reaches (all allowed): exactly it comes back.
    const LitmusTest &test = TestRegistry::instance().get("MP+dmb.sys");
    const std::string forbidden = "*x=1;*y=1;1:X0=1;1:X2=0;";
    std::set<std::string> outcomes =
        op::explore(test, op::CoreProfile::maxRelaxed()).outcomes;
    ASSERT_GE(outcomes.size(), 3u);
    ASSERT_EQ(outcomes.count(forbidden), 0u);
    outcomes.insert(forbidden);

    CandidateEnumerator enumerator(test);
    engine::Governor governor{engine::Budget()};
    std::optional<std::vector<std::string>> unwitnessed =
        unwitnessedOutcomes(test, enumerator, outcomes, ModelParams::base(),
                            governor);
    ASSERT_TRUE(unwitnessed.has_value());
    EXPECT_EQ(*unwitnessed, std::vector<std::string>{forbidden});
}

} // namespace
} // namespace rex::gen
