/**
 * @file
 * Parity tests for the staged candidate-enumeration fast path: the
 * staged checker (skeleton reuse + coherence pre-filter +
 * mutate-and-undo odometer) must be observationally identical to the
 * retained naive reference path (fresh candidate copy per witness
 * assignment, full model check per candidate) on every built-in litmus
 * test under every paper model variant — same counts, same verdict,
 * same forbidding explanation — and the sharded parallel path must be
 * byte-identical to the serial one.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "base/logging.hh"
#include "engine/governor.hh"
#include "engine/pool.hh"
#include "gen/cycle.hh"
#include "gen/generator.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"

namespace rex {
namespace {

/** Every field of the two results that the staged path promises to
 *  preserve (the witness itself is compared where captured). */
void
expectSameResult(const CheckResult &a, const CheckResult &b,
                 const std::string &context)
{
    EXPECT_EQ(a.observable, b.observable) << context;
    EXPECT_EQ(a.candidates, b.candidates) << context;
    EXPECT_EQ(a.consistent, b.consistent) << context;
    EXPECT_EQ(a.witnesses, b.witnesses) << context;
    EXPECT_EQ(a.constrainedUnpredictable, b.constrainedUnpredictable)
        << context;
    EXPECT_EQ(a.unknownSideEffects, b.unknownSideEffects) << context;
    EXPECT_EQ(a.forbiddingAxiom, b.forbiddingAxiom) << context;
    EXPECT_EQ(a.forbiddingCycle, b.forbiddingCycle) << context;
    EXPECT_EQ(a.witness.has_value(), b.witness.has_value()) << context;
    if (a.witness && b.witness) {
        EXPECT_EQ(a.witness->rf, b.witness->rf) << context;
        EXPECT_EQ(a.witness->co, b.witness->co) << context;
        EXPECT_EQ(a.witness->interruptWitness, b.witness->interruptWitness)
            << context;
    }
}

/** The number of candidates forEachStaged() visits. */
std::size_t
walkedCandidates(const CandidateEnumerator &enumerator)
{
    std::size_t n = 0;
    enumerator.forEachStaged(
        [&](CandidateExecution &, const CandidateEnumerator::StagedInfo &) {
            ++n;
            return true;
        });
    return n;
}

TEST(StagedParity, AllBuiltinTestsAllVariants)
{
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        for (const ModelParams &params : ModelParams::paperVariants()) {
            std::string context = test->name + " / " + params.name();
            expectSameResult(checkTest(*test, params),
                             checkTestNaive(*test, params), context);
            // Verdict-only mode stops at different candidates, so it is
            // a distinct code path: compare it too.
            expectSameResult(
                checkTest(*test, params, true, false),
                checkTestNaive(*test, params, true, false),
                context + " (stop_at_first)");
        }
    }
}

TEST(StagedParity, EnvNaiveEnumMatchesStaged)
{
    // REX_NAIVE_ENUM=1 must route checkTest through the reference path
    // with identical results.
    const LitmusTest &test =
        TestRegistry::instance().get("MP.EL1+dmb.sy+dataesrsvc");
    CheckResult staged = checkTest(test, ModelParams::base());
    ASSERT_EQ(setenv("REX_NAIVE_ENUM", "1", 1), 0);
    CheckResult naive = checkTest(test, ModelParams::base());
    ASSERT_EQ(unsetenv("REX_NAIVE_ENUM"), 0);
    expectSameResult(staged, naive, "REX_NAIVE_ENUM");
}

TEST(StagedParity, PrefilterAgreesWithFullInternalCheck)
{
    // REX_PREFILTER_CHECK=1 makes the enumerator panic if the cheap
    // per-location coherence pre-filter ever disagrees with the full
    // SC-per-location cycle check; sweeping every built-in test under
    // it is the strongest soundness exercise we have.
    ASSERT_EQ(setenv("REX_PREFILTER_CHECK", "1", 1), 0);
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        CandidateEnumerator enumerator(*test);
        EXPECT_EQ(walkedCandidates(enumerator), enumerator.count())
            << test->name;
    }
    ASSERT_EQ(unsetenv("REX_PREFILTER_CHECK"), 0);
}

TEST(StagedParity, ShardedMatchesSerial)
{
    engine::ThreadPool pool(4);
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        for (const ModelParams &params : ModelParams::paperVariants()) {
            std::string context = test->name + " / " + params.name();
            expectSameResult(checkTest(*test, params),
                             checkTest(*test, params, false, true, &pool),
                             context + " (sharded)");
            expectSameResult(
                checkTest(*test, params, true, true),
                checkTest(*test, params, true, true, &pool),
                context + " (sharded stop_at_first)");
        }
    }
}

TEST(StagedParity, CountMatchesTheWalkOnGeneratedTests)
{
    // count() works from the traces alone; on generated tests (SGIs,
    // handlers, exclusives, three threads) it must still equal the
    // walk.
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        LitmusTest test =
            parseLitmus(gen::generate(seed, gen::GenConfig()).source);
        CandidateEnumerator enumerator(test);
        EXPECT_EQ(enumerator.count(), walkedCandidates(enumerator))
            << "random seed " << seed;
    }
    for (const gen::Cycle &cycle : gen::enumerateCycles(gen::CycleConfig())) {
        LitmusTest test = parseLitmus(gen::synthesizeCycle(cycle).source);
        CandidateEnumerator enumerator(test);
        EXPECT_EQ(enumerator.count(), walkedCandidates(enumerator))
            << test.name;
    }
}

TEST(StagedParity, CountMatchesTheWalkWithTwoSgiSenders)
{
    // Threads 0 and 2 both send SGI 0 to thread 1, so its delivered
    // interrupt has two generators to choose from in every combination
    // that sends both.
    LitmusTest test = parseLitmus(R"(name: two-sgi-senders
init: *x=0; 0:X1=x; 0:PSTATE.EL=1; 2:PSTATE.EL=1; 1:X2=x
thread 0:
    MOV X0,#1
    STR X0,[X1]
    MOV X2,#2
    MSR ICC_SGI1R_EL1,X2
thread 1:
    NOP
handler 1:
    MOV X0,#1
    LDR X1,[X2]
    ERET
thread 2:
    MOV X2,#2
    MSR ICC_SGI1R_EL1,X2
allowed: 1:X0=1 & 1:X1=0
)");
    CandidateEnumerator enumerator(test);
    EXPECT_GT(enumerator.count(), 0u);
    EXPECT_EQ(enumerator.count(), walkedCandidates(enumerator));
}

TEST(StagedParity, PermutationGuardFires)
{
    // Nine same-location stores would need 9! coherence orders per
    // combination: the enumerator must refuse with a diagnostic naming
    // the test instead of silently exploding, when walking and when
    // counting.
    std::string text = "name: nine-writes\ninit: *x=0";
    std::string threads;
    for (int i = 0; i < 9; ++i) {
        text += "; " + std::to_string(i) + ":X1=x; " + std::to_string(i) +
                ":X0=" + std::to_string(i + 1);
        threads += "thread " + std::to_string(i) + ":\n    STR X0,[X1]\n";
    }
    text += "\n" + threads + "allowed: *x=1\n";
    LitmusTest test = parseLitmus(text);
    CandidateEnumerator enumerator(test);
    EXPECT_THROW(
        enumerator.forEach([](CandidateExecution &) { return true; }),
        FatalError);
    EXPECT_THROW(
        enumerator.forEachNaive([](CandidateExecution &) { return true; }),
        FatalError);
    EXPECT_THROW(enumerator.planShards(64), FatalError);
    EXPECT_THROW(enumerator.count(), FatalError);
}

TEST(StagedParity, CountStopsOnATrippedToken)
{
    const LitmusTest &test = TestRegistry::instance().get("MP+pos");
    CandidateEnumerator enumerator(test);
    ASSERT_GT(enumerator.count(), 0u);
    engine::CancelToken token;
    token.trip(engine::BudgetAxis::Cancelled);
    EXPECT_EQ(enumerator.count(&token), 0u);
}

} // namespace
} // namespace rex
