/**
 * @file
 * Differential fuzzing over the src/gen synthesizer: generate litmus
 * tests (threads of loads, stores, barriers, dependency chains,
 * acquire/release pairs, exclusive RMWs, LDP/STP pairs, and
 * SVC/interrupt handler splices), then check that the shipped cat model
 * agrees with the native transcription on every candidate, and that
 * every outcome the operational simulator can reach is allowed by the
 * axiomatic model. The corpus is the same one the soundness hammer
 * (src/gen/hammer.hh) drives at campaign scale; here a small slice runs
 * in-tree so `ctest` exercises the whole pipeline on every build.
 *
 * The corpus fans out over the batch engine (REX_JOBS workers, default
 * hardware concurrency): each seed is one pool job returning a failure
 * description (empty = pass), and all assertions run on the main thread
 * over the collected results, so the corpus is embarrassingly parallel
 * without sharing gtest state across threads.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "axiomatic/enumerate.hh"
#include "axiomatic/model.hh"
#include "cat/catmodel.hh"
#include "engine/batch.hh"
#include "gen/generator.hh"
#include "gen/hammer.hh"
#include "litmus/parser.hh"
#include "operational/explorer.hh"

namespace rex {
namespace {

LitmusTest
generateTest(std::uint64_t seed)
{
    return parseLitmus(gen::generate(seed, gen::GenConfig{}).source);
}

/** One cat-agreement job: "" on success, else a failure description. */
std::string
catAgreementJob(std::uint64_t seed)
{
    LitmusTest test = generateTest(seed);
    const cat::CatModel &model = cat::CatModel::shipped();
    CandidateEnumerator enumerator(test);
    std::size_t checked = 0;
    std::string failure;
    enumerator.forEach([&](CandidateExecution &cand) {
        bool native =
            checkConsistent(cand, ModelParams::base()).consistent;
        bool interpreted =
            model.check(cand, ModelParams::base()).consistent;
        if (native != interpreted) {
            failure = test.name + ": native " +
                (native ? "consistent" : "inconsistent") +
                " but cat " +
                (interpreted ? "consistent" : "inconsistent");
            return false;
        }
        return ++checked < 400;
    });
    if (failure.empty() && checked == 0)
        return test.name + ": no candidates enumerated";
    return failure;
}

/** One soundness job: "" on success/skip, else a failure description.
 *  Delegates to the hammer's per-seed check — the same code path the
 *  campaign CLI runs. */
std::string
soundnessJob(std::uint64_t seed, std::size_t &skipped)
{
    gen::HammerConfig config;
    gen::SeedResult result =
        gen::soundnessCheck(gen::generateSpec(seed, config.gen), config);
    if (result.outcome == gen::SeedOutcome::Skipped) {
        ++skipped;
        return "";
    }
    if (result.outcome == gen::SeedOutcome::Violation) {
        std::string failure = "gen-" + std::to_string(seed) +
            ": operationally reachable but axiomatically forbidden:";
        for (const std::string &key : result.violating)
            failure += " " + key;
        return failure;
    }
    return "";
}

/** Differential fuzzing of the cat interpreter: the shipped Figure 9
 *  model must agree with the native transcription on random programs,
 *  not just the curated library. */
TEST(FuzzCatAgreement, CatAgreesWithNativeOnRandomPrograms)
{
    // Force the shipped model's lazy load before fanning out.
    cat::CatModel::shipped();
    engine::Engine engine{engine::EngineConfig{}};
    std::vector<std::string> failures =
        engine.map(60, [](std::size_t i) {
            return catAgreementJob(i + 1);
        });
    for (const std::string &failure : failures)
        EXPECT_EQ(failure, "");
}

TEST(FuzzSoundness, OperationalWithinAxiomatic)
{
    engine::Engine engine{engine::EngineConfig{}};
    std::vector<std::size_t> skips(400, 0);
    std::vector<std::string> failures =
        engine.map(400, [&skips](std::size_t i) {
            return soundnessJob((i + 1) * 2654435761u, skips[i]);
        });
    std::size_t skipped = 0;
    for (std::size_t s : skips)
        skipped += s;
    for (const std::string &failure : failures)
        EXPECT_EQ(failure, "");
    // The corpus must overwhelmingly run, not skip.
    EXPECT_LT(skipped, 40u);
}

} // namespace
} // namespace rex
