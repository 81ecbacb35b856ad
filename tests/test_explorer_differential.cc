/**
 * @file
 * Differential tests of the operational explorer: the production
 * explorer (flat states, exact arena-keyed memo) against the test-only
 * reference explorer (deep-copied machines, string keys; see
 * reference_explorer.hh). Both must report the same outcomes, the same
 * condition reachability, the same truncation and the same number of
 * visited states on every builtin under every core profile, on the
 * first 2,000 random-mode hammer seeds, and on the whole cycle
 * inventory.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/hammer.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "operational/explorer.hh"
#include "reference_explorer.hh"

namespace rex {
namespace {

using op::CoreProfile;
using op::ExploreResult;

void
expectSameExploration(const LitmusTest &test, const CoreProfile &profile,
                      std::size_t max_states, const std::string &what)
{
    ExploreResult fast = op::explore(test, profile, max_states);
    ExploreResult ref = op::reference::explore(test, profile, max_states);
    EXPECT_EQ(fast.outcomes, ref.outcomes) << what;
    EXPECT_EQ(fast.conditionReachable, ref.conditionReachable) << what;
    EXPECT_EQ(fast.truncated, ref.truncated) << what;
    EXPECT_EQ(fast.statesVisited, ref.statesVisited) << what;
}

std::vector<CoreProfile>
everyProfile()
{
    return {CoreProfile::cortexA53(), CoreProfile::cortexA72(),
            CoreProfile::cortexA76(), CoreProfile::cortexA73(),
            CoreProfile::sequential(), CoreProfile::maxRelaxed()};
}

TEST(ExplorerDifferential, EveryBuiltinOnEveryProfile)
{
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        for (const CoreProfile &profile : everyProfile())
            expectSameExploration(*test, profile, 400000,
                                  test->name + " on " + profile.name);
    }
}

TEST(ExplorerDifferential, TruncatedExplorationsAgree)
{
    // A cap small enough to stop most builtins part-way: both explorers
    // must stop at the same state with the same partial outcome set.
    for (const LitmusTest *test : TestRegistry::instance().all())
        expectSameExploration(*test, CoreProfile::maxRelaxed(), 60,
                              test->name);
}

TEST(ExplorerDifferential, UnboundedLoopOutgrowsItsLayout)
{
    // Each spin of the loop leaves one more (satisfied) load in the
    // thread's window record, so states never repeat and the thread
    // keeps outgrowing the ops its layout reserved.
    LitmusTest test = parseLitmus(
        "name: spin\n"
        "init: *x=0; 0:X1=x; 1:X1=x; 1:X2=1\n"
        "thread 0:\n"
        "spin:\n"
        "    LDR X0,[X1]\n"
        "    CBZ X0,spin\n"
        "thread 1:\n"
        "    STR X2,[X1]\n"
        "allowed: 0:X0=1\n");
    for (const CoreProfile &profile : everyProfile()) {
        expectSameExploration(test, profile, 3000, profile.name);
        EXPECT_TRUE(op::explore(test, profile, 3000).truncated);
    }
}

TEST(ExplorerDifferential, RandomHammerSeeds)
{
    gen::HammerConfig config;
    config.mode = gen::Mode::Random;
    gen::Hammer hammer(config);
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        LitmusTest test = parseLitmus(hammer.testForSeed(seed).source);
        expectSameExploration(test, CoreProfile::maxRelaxed(),
                              config.maxStates,
                              "seed " + std::to_string(seed));
    }
}

TEST(ExplorerDifferential, CycleInventory)
{
    gen::HammerConfig config;
    config.mode = gen::Mode::Cycle;
    gen::Hammer hammer(config);
    ASSERT_GT(hammer.inventorySize(), 0u);
    for (std::uint64_t i = 0; i < hammer.inventorySize(); ++i) {
        LitmusTest test = parseLitmus(hammer.testForSeed(i).source);
        expectSameExploration(test, CoreProfile::maxRelaxed(),
                              config.maxStates, test.name);
    }
}

} // namespace
} // namespace rex
