/**
 * @file
 * Differential tests of the operational explorer: the production
 * explorer (flat states, exact arena-keyed memo, persistent-set
 * reduction) against the test-only reference explorer (deep-copied
 * machines, string keys, every enabled transition expanded; see
 * reference_explorer.hh). On every builtin under every core profile,
 * on the first 2,000 random-mode hammer seeds and on the whole cycle
 * inventory, both must report the same outcomes and the same condition
 * reachability; the production explorer must visit no more states than
 * the reference and must not truncate where the reference does not.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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
expectSameOutcomes(const LitmusTest &test, const CoreProfile &profile,
                   std::size_t max_states, const std::string &what)
{
    ExploreResult fast = op::explore(test, profile, max_states);
    ExploreResult ref = op::reference::explore(test, profile, max_states);
    ASSERT_FALSE(ref.truncated) << what;
    EXPECT_FALSE(fast.truncated) << what;
    EXPECT_EQ(fast.outcomes, ref.outcomes) << what;
    EXPECT_EQ(fast.conditionReachable, ref.conditionReachable) << what;
    EXPECT_LE(fast.statesVisited, ref.statesVisited) << what;
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
            expectSameOutcomes(*test, profile, 400000,
                               test->name + " on " + profile.name);
    }
}

TEST(ExplorerDifferential, TruncatedExplorationsStaySound)
{
    // A cap small enough to stop most builtins part-way. The two
    // explorers then visit different states, so a truncated production
    // run is held to the reference's full outcome set: it may miss
    // outcomes but never invent one. A run the cap did not stop must
    // find them all.
    const CoreProfile profile = CoreProfile::maxRelaxed();
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        ExploreResult fast = op::explore(*test, profile, 60);
        ExploreResult full = op::reference::explore(*test, profile, 400000);
        ASSERT_FALSE(full.truncated) << test->name;
        if (fast.truncated) {
            EXPECT_TRUE(std::includes(full.outcomes.begin(),
                                      full.outcomes.end(),
                                      fast.outcomes.begin(),
                                      fast.outcomes.end()))
                << test->name;
            EXPECT_TRUE(!fast.conditionReachable || full.conditionReachable)
                << test->name;
        } else {
            EXPECT_EQ(fast.outcomes, full.outcomes) << test->name;
            EXPECT_EQ(fast.conditionReachable, full.conditionReachable)
                << test->name;
        }
    }
}

TEST(ExplorerDifferential, UnboundedLoopOutgrowsItsLayout)
{
    // Each spin of the loop leaves one more (satisfied) load in the
    // thread's window record, so states never repeat and the thread
    // keeps outgrowing the ops its layout reserved. The only outcome
    // either explorer can reach is thread 0 seeing thread 1's store.
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
    const std::set<std::string> possible = {"*x=1;0:X0=1;"};
    for (const CoreProfile &profile : everyProfile()) {
        ExploreResult fast = op::explore(test, profile, 3000);
        ExploreResult ref = op::reference::explore(test, profile, 3000);
        EXPECT_TRUE(fast.truncated) << profile.name;
        EXPECT_TRUE(ref.truncated) << profile.name;
        EXPECT_TRUE(std::includes(possible.begin(), possible.end(),
                                  fast.outcomes.begin(), fast.outcomes.end()))
            << profile.name;
        EXPECT_TRUE(std::includes(possible.begin(), possible.end(),
                                  ref.outcomes.begin(), ref.outcomes.end()))
            << profile.name;
    }
}

TEST(ExplorerDifferential, ReductionPrunesStates)
{
    // A thread's local Issue is expanded alone, so these explorations
    // visit strictly fewer states than the unreduced reference; an
    // explorer that silently stopped reducing would fail here.
    for (const char *name : {"SB+pos", "IRIW+pos", "MP+dmb.sy+svc"}) {
        const LitmusTest &test = TestRegistry::instance().get(name);
        ExploreResult fast = op::explore(test, CoreProfile::maxRelaxed());
        ExploreResult ref =
            op::reference::explore(test, CoreProfile::maxRelaxed());
        EXPECT_LT(fast.statesVisited, ref.statesVisited) << name;
    }
}

TEST(ExplorerDifferential, SgiCanArriveBeforeALocalIssue)
{
    // Thread 1's first instruction touches only its own registers, but
    // thread 0's SGI may interrupt thread 1 before it, so the handler
    // can copy X0 while it is still 0. Treating that MOV as a local
    // Issue while thread 1 can still be interrupted (that is, dropping
    // the interrupt guard from Machine::issueIsLocal) loses the outcome
    // 1:X3=0 & 1:X4=1, and the builtin RCU-MP loses outcomes the same
    // way (see EveryBuiltinOnEveryProfile).
    LitmusTest test = parseLitmus(
        "name: SGI-before-issue\n"
        "init: 0:PSTATE.EL=1\n"
        "thread 0:\n"
        "    MOV X2,#1,LSL #40\n"
        "    MSR ICC_SGI1R_EL1,X2\n"
        "thread 1:\n"
        "    MOV X0,#1\n"
        "handler 1:\n"
        "    MOV X3,X0\n"
        "    MOV X4,#1\n"
        "    ERET\n"
        "allowed: 1:X3=0 & 1:X4=1\n");
    for (const CoreProfile &profile : everyProfile()) {
        ExploreResult fast = op::explore(test, profile);
        EXPECT_TRUE(fast.conditionReachable) << profile.name;
        expectSameOutcomes(test, profile, 400000, profile.name);
    }
}

TEST(ExplorerDifferential, RandomHammerSeeds)
{
    gen::HammerConfig config;
    config.mode = gen::Mode::Random;
    gen::Hammer hammer(config);
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        LitmusTest test = parseLitmus(hammer.testForSeed(seed).source);
        expectSameOutcomes(test, CoreProfile::maxRelaxed(),
                           config.maxStates, "seed " + std::to_string(seed));
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
        expectSameOutcomes(test, CoreProfile::maxRelaxed(),
                           config.maxStates, test.name);
    }
}

} // namespace
} // namespace rex
