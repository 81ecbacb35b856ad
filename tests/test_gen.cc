/**
 * @file
 * Tests for the rexgen subsystem (src/gen): synthesizer determinism,
 * parser round-trips of generated sources, lowering parity (lower(spec)
 * against parseLitmus(render(spec))), the cycle inventory, the
 * minimizer's pass structure (via an injected fake oracle), hammer
 * checkpoint/resume identity, and feature coverage of the paper's
 * exception machinery over a small campaign.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/strings.hh"
#include "engine/batch.hh"
#include "gen/cycle.hh"
#include "gen/generator.hh"
#include "gen/hammer.hh"
#include "gen/minimize.hh"
#include "litmus/parser.hh"

namespace rex::gen {
namespace {

// ---------------------------------------------------------------------
// Generator determinism and round-trips.
// ---------------------------------------------------------------------

TEST(Generator, SeedDeterminesBytes)
{
    for (std::uint64_t seed : {0ull, 1ull, 42ull, 999ull, 123456789ull}) {
        GeneratedTest a = generate(seed, GenConfig{});
        GeneratedTest b = generate(seed, GenConfig{});
        EXPECT_EQ(a.source, b.source) << "seed " << seed;
    }
}

TEST(Generator, SourcesRoundTripThroughParser)
{
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        GeneratedTest test = generate(seed, GenConfig{});
        LitmusTest parsed = parseLitmus(test.source);
        EXPECT_EQ(parsed.name, "gen-" + std::to_string(seed));
        EXPECT_EQ(parsed.threads.size(), test.spec.threads.size());
    }
}

TEST(Generator, FeaturesReflectSpec)
{
    TestSpec spec;
    spec.name = "feat";
    ThreadSpec thread;
    Op rmw;
    rmw.kind = Op::Kind::Rmw;
    thread.body.push_back(rmw);
    thread.interrupt = true;
    spec.threads.push_back(thread);
    spec.threads.push_back(ThreadSpec{});
    spec.threads.back().body.push_back(Op{});  // a load

    Features f = specFeatures(spec);
    EXPECT_EQ(f.interrupt, 1u);
    EXPECT_EQ(f.handler, 1u);
    EXPECT_EQ(f.rmw, 1u);
    EXPECT_EQ(f.svc, 0u);
    EXPECT_EQ(f.eret, 0u);
    EXPECT_EQ(f.threads3, 0u);
}

// ---------------------------------------------------------------------
// Lowering parity: lower(spec) is parseLitmus(render(spec)).
// ---------------------------------------------------------------------

void
describeProgram(std::string &out, const char *what,
                const isa::Program &program)
{
    out += format("%s: %zu instructions\n", what, program.code.size());
    for (const isa::Instruction &inst : program.code) {
        out += format("  op %d rd %d rn %d rm %d rs %d imm %lld shift %d "
                      "mode %d alu %d aluImm %d cond %d pairSecond %d "
                      "barrier %d sysreg %d label '%s'\n",
                      static_cast<int>(inst.op), inst.rd, inst.rn, inst.rm,
                      inst.rs, static_cast<long long>(inst.imm), inst.shift,
                      static_cast<int>(inst.mode),
                      static_cast<int>(inst.alu), inst.aluImmediate,
                      static_cast<int>(inst.cond), inst.pairSecond,
                      static_cast<int>(inst.barrier),
                      static_cast<int>(inst.sysreg), inst.label.c_str());
    }
    for (const auto &[label, index] : program.labels)
        out += format("  label '%s' at %zu\n", label.c_str(), index);
}

/** Every field of @p test but sourceText, one line each: two tests are
 *  equal in those fields exactly when their descriptions are, and a
 *  mismatch shows the differing line. */
std::string
describeTest(const LitmusTest &test)
{
    std::string out = "name '" + test.name + "' desc '" +
                      test.description + "'\n";
    for (std::size_t t = 0; t < test.threads.size(); ++t) {
        const LitmusThread &thread = test.threads[t];
        out += format("thread %zu: el %d masked %d eoi1 %d interrupt %s "
                      "intid %u sgi %d\n",
                      t, thread.initialEl, thread.initialMasked,
                      thread.eoiMode1,
                      thread.interruptAt ? thread.interruptAt->c_str()
                                         : "-",
                      thread.interruptIntid, thread.sgiReceiver);
        out += "  regs";
        for (std::uint64_t value : thread.initRegs)
            out += format(" %llu", static_cast<unsigned long long>(value));
        out += "\n";
        describeProgram(out, "  program", thread.program);
        describeProgram(out, "  handler", thread.handler);
    }
    for (std::size_t loc = 0; loc < test.locations.size(); ++loc) {
        out += format("location %zu '%s' init %llu\n", loc,
                      test.locations[loc].c_str(),
                      static_cast<unsigned long long>(
                          test.initValues[loc]));
    }
    out += format("%zu init values\n", test.initValues.size());
    for (const CondAtom &atom : test.finalCond.atoms) {
        out += format("atom kind %d tid %d reg %d loc %u value %llu\n",
                      static_cast<int>(atom.kind), atom.tid, atom.reg,
                      atom.loc, static_cast<unsigned long long>(atom.value));
    }
    out += format("allowed %d\n", test.expectedAllowed);
    for (const auto &[variant, allowed] : test.variantAllowed)
        out += format("variant %s %d\n", variant.c_str(), allowed);
    return out;
}

::testing::AssertionResult
lowersLikeParse(const TestSpec &spec)
{
    const std::string lowered = describeTest(lower(spec));
    const std::string parsed = describeTest(parseLitmus(render(spec)));
    if (lowered == parsed)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "lowered:\n" << lowered << "parsed:\n" << parsed;
}

TEST(LowerParity, RandomSeeds)
{
    for (std::uint64_t seed = 0; seed < 20000; ++seed)
        ASSERT_TRUE(lowersLikeParse(generateSpec(seed, GenConfig{})))
            << "seed " << seed;
}

TEST(LowerParity, EveryToggleThreeThreads)
{
    GenConfig config;
    config.threeThreadPercent = 100;
    config.svc = config.interrupts = config.eret = config.rmw =
        config.pairs = config.acqRel = config.deps = true;
    for (std::uint64_t seed = 0; seed < 5000; ++seed) {
        const TestSpec spec = generateSpec(seed, config);
        ASSERT_EQ(spec.threads.size(), 3u);
        ASSERT_TRUE(lowersLikeParse(spec)) << "seed " << seed;
    }
}

TEST(LowerParity, CycleInventory)
{
    const std::vector<Cycle> inventory = enumerateCycles(CycleConfig{});
    ASSERT_GT(inventory.size(), 200u);
    for (const Cycle &cycle : inventory)
        ASSERT_TRUE(lowersLikeParse(cycleSpec(cycle))) << cycleName(cycle);
}

Op
specOp(Op::Kind kind, int loc, int dst = 0)
{
    Op op;
    op.kind = kind;
    op.loc = loc;
    op.dst = dst;
    return op;
}

Op
ctrlDep(Op op, int on)
{
    op.dep = Op::Dep::Ctrl;
    op.depOn = on;
    return op;
}

TEST(LowerParity, MinimizerEdgeShapes)
{
    // Shapes the shrink passes leave behind, which no generator emits.
    TestSpec spec;
    spec.name = "edges";
    spec.numLocations = 3;

    // Thread 0: SVC whose handler ops were all dropped -> NOP handler.
    ThreadSpec svc;
    svc.body.push_back(specOp(Op::Kind::Load, 0, 0));
    svc.svc = true;
    spec.threads.push_back(svc);

    // Thread 1: a pended interrupt with no handler ops -> NOP handler.
    ThreadSpec irq;
    irq.body.push_back(specOp(Op::Kind::Store, 1));
    irq.interrupt = true;
    spec.threads.push_back(irq);

    // Thread 2: every op dropped -> NOP.
    spec.threads.push_back(ThreadSpec{});

    // Thread 3: ctrl deps in body, after and handler, and LDP/STP on
    // the last-but-one location (the second element is the last cell).
    ThreadSpec deps;
    deps.body.push_back(specOp(Op::Kind::LoadPair, 1, 0));
    deps.body.push_back(ctrlDep(specOp(Op::Kind::Store, 0), 0));
    deps.body.push_back(ctrlDep(specOp(Op::Kind::Load, 2, 2), 1));
    deps.svc = true;
    deps.eret = true;
    deps.handler.push_back(ctrlDep(specOp(Op::Kind::StorePair, 1), 2));
    deps.after.push_back(ctrlDep(specOp(Op::Kind::Load, 0, 3), 2));
    spec.threads.push_back(deps);

    // Empty condition -> *x=0.
    ASSERT_TRUE(lowersLikeParse(spec));
    const LitmusTest test = lower(spec);
    ASSERT_EQ(test.finalCond.atoms.size(), 1u);
    EXPECT_EQ(test.finalCond.atoms[0].kind, CondAtom::Kind::Memory);
    EXPECT_EQ(test.finalCond.atoms[0].loc, 0u);
    EXPECT_EQ(test.finalCond.atoms[0].value, 0u);
    ASSERT_EQ(test.threads[0].handler.code.size(), 1u);
    EXPECT_EQ(test.threads[0].handler.code[0].op, isa::Opcode::Nop);
    ASSERT_EQ(test.threads[1].handler.code.size(), 1u);
    EXPECT_EQ(test.threads[1].handler.code[0].op, isa::Opcode::Nop);
    EXPECT_EQ(test.threads[1].interruptAt, "LI1");
    ASSERT_EQ(test.threads[2].program.code.size(), 1u);
    EXPECT_EQ(test.threads[2].program.code[0].op, isa::Opcode::Nop);
    EXPECT_TRUE(test.threads[2].handler.code.empty());
    const LitmusThread &t3 = test.threads[3];
    EXPECT_EQ(t3.program.labelIndex("LC30"), 3u);
    EXPECT_EQ(t3.program.labelIndex("LC31"), 6u);
    EXPECT_EQ(t3.program.labelIndex("LC32"), 9u);
    EXPECT_EQ(t3.handler.labelIndex("LC3100"), 1u);
    EXPECT_TRUE(t3.program.code[1].pairSecond);
    EXPECT_EQ(t3.program.code[1].imm, 0x1000);
    EXPECT_TRUE(t3.handler.code[3].pairSecond);

    // Dropping the ERET tail, then the SVC boundary itself.
    spec.threads[3].eret = false;
    spec.threads[3].after.clear();
    EXPECT_TRUE(lowersLikeParse(spec));
    spec.threads[3].svc = false;
    spec.threads[3].handler.clear();
    EXPECT_TRUE(lowersLikeParse(spec));

    // Register and memory atoms after the last location was compacted
    // away.
    spec.numLocations = 2;
    SpecCond reg;
    reg.tid = 3;
    reg.slot = 2;
    reg.value = 1;
    SpecCond mem;
    mem.memory = true;
    mem.loc = 1;
    mem.value = 2;
    spec.condition = {reg, mem};
    ASSERT_TRUE(lowersLikeParse(spec));
    EXPECT_EQ(lower(spec).locations.size(), 2u);
}

// ---------------------------------------------------------------------
// Cycle inventory.
// ---------------------------------------------------------------------

TEST(Cycle, InventoryIsDeterministicAndParses)
{
    HammerConfig config;
    config.mode = Mode::Cycle;
    config.seedEnd = 1;
    Hammer a(config), b(config);
    ASSERT_GT(a.inventorySize(), 200u);
    EXPECT_EQ(a.inventorySize(), b.inventorySize());

    // Every inventory entry synthesizes deterministically and parses.
    for (std::size_t i = 0; i < a.inventorySize(); i += 7) {
        GeneratedTest ta = a.testForSeed(i);
        GeneratedTest tb = b.testForSeed(i);
        EXPECT_EQ(ta.source, tb.source);
        LitmusTest parsed = parseLitmus(ta.source);
        EXPECT_FALSE(parsed.threads.empty());
    }
}

TEST(Cycle, InventoryCoversExceptionEdges)
{
    HammerConfig config;
    config.mode = Mode::Cycle;
    config.seedEnd = 1;
    Hammer hammer(config);

    Features total;
    for (std::size_t i = 0; i < hammer.inventorySize(); ++i)
        total.merge(hammer.testForSeed(i).features);
    EXPECT_GT(total.svc, 0u);
    EXPECT_GT(total.eret, 0u);
    EXPECT_GT(total.interrupt, 0u);
    EXPECT_GT(total.dep, 0u);
    EXPECT_GT(total.barrier, 0u);
}

// ---------------------------------------------------------------------
// Campaign determinism across job counts.
// ---------------------------------------------------------------------

std::string
campaignRender(unsigned jobs)
{
    HammerConfig config;
    config.seedEnd = 200;
    config.chunk = 64;
    Hammer hammer(config);
    engine::EngineConfig engine_config;
    engine_config.jobs = jobs;
    engine::Engine engine(engine_config);
    return hammer.run(engine).render();
}

TEST(Hammer, SummaryIdenticalAcrossJobCounts)
{
    EXPECT_EQ(campaignRender(1), campaignRender(4));
}

// ---------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------

/** Temp checkpoint path in the build directory; removed on scope exit. */
struct ScopedPath {
    std::string path;
    explicit ScopedPath(std::string p) : path(std::move(p))
    {
        std::remove(path.c_str());
    }
    ~ScopedPath() { std::remove(path.c_str()); }
};

TEST(Hammer, ResumeMatchesUninterruptedRun)
{
    HammerConfig config;
    config.seedEnd = 96;
    config.chunk = 32;

    engine::EngineConfig engine_config;
    engine_config.jobs = 2;
    engine::Engine engine(engine_config);

    // The uninterrupted reference run (no checkpointing).
    std::string reference = Hammer(config).run(engine).render();

    // Simulate a campaign killed after its first chunk: accumulate the
    // first 32 seeds exactly as run() does and checkpoint that state.
    ScopedPath ckpt("test_gen_resume.ckpt");
    config.checkpointPath = ckpt.path;
    Hammer hammer(config);
    CampaignSummary partial;
    partial.seedBegin = config.seedBegin;
    partial.seedEnd = config.seedEnd;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        SeedResult result = hammer.checkSeed(seed);
        ++partial.tested;
        partial.features.merge(result.features);
        switch (result.outcome) {
          case SeedOutcome::Sound: ++partial.sound; break;
          case SeedOutcome::Skipped: ++partial.skipped; break;
          case SeedOutcome::Violation:
            partial.violationSeeds.push_back(seed);
            break;
        }
    }
    partial.nextSeed = 32;
    saveCheckpoint(ckpt.path, hammer.fingerprint(), partial);

    // The resumed run must only process seeds [32, 96) and its final
    // summary must be byte-identical to the uninterrupted run's.
    CampaignSummary resumed = hammer.run(engine);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.render(), reference);
}

TEST(Hammer, CheckpointRoundTripsAndChecksFingerprint)
{
    ScopedPath ckpt("test_gen_ckpt.ckpt");

    CampaignSummary summary;
    summary.seedBegin = 5;
    summary.seedEnd = 105;
    summary.nextSeed = 55;
    summary.tested = 50;
    summary.sound = 48;
    summary.skipped = 1;
    summary.violationSeeds = {17};
    summary.features.svc = 12;
    summary.features.pair = 3;

    saveCheckpoint(ckpt.path, 0xabcdefull, summary);
    CampaignSummary loaded;
    ASSERT_TRUE(loadCheckpoint(ckpt.path, 0xabcdefull, loaded));
    EXPECT_EQ(loaded.render(), summary.render());
    EXPECT_EQ(loaded.nextSeed, 55u);
    EXPECT_EQ(loaded.violationSeeds, summary.violationSeeds);

    // A checkpoint from a different configuration must be refused, not
    // silently reinterpreted.
    EXPECT_THROW(loadCheckpoint(ckpt.path, 0x123ull, loaded), FatalError);

    // Missing file: clean "no checkpoint" signal.
    EXPECT_FALSE(
        loadCheckpoint("test_gen_missing.ckpt", 0xabcdefull, loaded));
}

TEST(Hammer, FingerprintTracksConfiguration)
{
    HammerConfig a;
    a.seedEnd = 100;
    HammerConfig b = a;
    b.seedEnd = 101;
    HammerConfig c = a;
    c.gen.rmw = false;
    EXPECT_NE(Hammer(a).fingerprint(), Hammer(b).fingerprint());
    EXPECT_NE(Hammer(a).fingerprint(), Hammer(c).fingerprint());
    EXPECT_EQ(Hammer(a).fingerprint(), Hammer(a).fingerprint());
}

// ---------------------------------------------------------------------
// Minimizer pass structure (injected fake oracle).
// ---------------------------------------------------------------------

/** The property the fake oracle preserves: some thread stores to
 *  location 0 (any section). */
bool
storesToLocZero(const TestSpec &spec)
{
    for (const ThreadSpec &thread : spec.threads) {
        for (const std::vector<Op> ThreadSpec::*section :
             {&ThreadSpec::body, &ThreadSpec::after,
              &ThreadSpec::handler}) {
            for (const Op &op : thread.*section) {
                if (op.kind == Op::Kind::Store && op.loc == 0)
                    return true;
            }
        }
    }
    return false;
}

TEST(Minimize, ShrinksToTheOracleCore)
{
    TestSpec spec;
    spec.name = "fake";
    spec.numLocations = 2;

    ThreadSpec t0;
    Op load;
    load.kind = Op::Kind::Load;
    load.loc = 1;
    Op fence;
    fence.kind = Op::Kind::Fence;
    Op store;
    store.kind = Op::Kind::Store;
    store.loc = 0;
    store.value = 1;
    store.release = true;
    t0.body = {load, fence, store};
    t0.svc = true;
    t0.eret = true;
    t0.handler = {fence};

    ThreadSpec t1;
    t1.body = {fence, fence};

    spec.threads = {t0, t1};
    SpecCond atom;
    atom.tid = 0;
    atom.slot = 0;
    spec.condition = {atom};

    // The oracle must hold for every spec minimize() returns, and every
    // candidate shrink must still render (the oracle sees valid specs).
    unsigned queried = 0;
    Oracle oracle = [&](const TestSpec &candidate) {
        ++queried;
        EXPECT_FALSE(render(candidate).empty());
        return storesToLocZero(candidate);
    };

    MinimizeStats stats;
    TestSpec minimal = minimize(spec, oracle, &stats);

    EXPECT_TRUE(storesToLocZero(minimal));
    EXPECT_GT(queried, 0u);
    EXPECT_GT(stats.accepted, 0u);
    EXPECT_GE(stats.attempts, stats.accepted);

    // Everything the property does not need is gone: the second
    // thread, the exception machinery, the other ops, the annotation,
    // the condition, and the now-unused second location.
    ASSERT_EQ(minimal.threads.size(), 1u);
    EXPECT_EQ(minimal.threads[0].body.size(), 1u);
    EXPECT_EQ(minimal.threads[0].body[0].kind, Op::Kind::Store);
    EXPECT_FALSE(minimal.threads[0].body[0].release);
    EXPECT_TRUE(minimal.threads[0].handler.empty());
    EXPECT_FALSE(minimal.threads[0].svc);
    EXPECT_FALSE(minimal.threads[0].eret);
    EXPECT_TRUE(minimal.condition.empty());
    EXPECT_EQ(minimal.numLocations, 1);
}

TEST(Minimize, RejectsNonViolatingInput)
{
    TestSpec spec = generate(1, GenConfig{}).spec;
    Oracle never = [](const TestSpec &) { return false; };
    EXPECT_THROW(minimize(spec, never), FatalError);
}

TEST(Minimize, PromoteEmitsVerdictLines)
{
    TestSpec spec;
    spec.name = "ignored";
    spec.numLocations = 1;
    ThreadSpec t0;
    Op store;
    store.kind = Op::Kind::Store;
    store.value = 1;
    t0.body = {store};
    spec.threads = {t0};
    SpecCond atom;
    atom.memory = true;
    atom.value = 1;
    spec.condition = {atom};

    std::string source = promote(spec, "promoted-name");
    EXPECT_EQ(source.rfind("name: promoted-name", 0), 0u);
    // A single unconditional store makes *x=1 certain: allowed.
    EXPECT_NE(source.find("allowed: *x=1"), std::string::npos);
    EXPECT_NE(source.find("variant SEA_RW: "), std::string::npos);
    // Promoted sources parse (registry-ready).
    EXPECT_NO_THROW(parseLitmus(source));
}

// ---------------------------------------------------------------------
// Campaign feature coverage (the acceptance counters).
// ---------------------------------------------------------------------

TEST(Hammer, SmallCampaignIsSoundAndCoversExceptionMachinery)
{
    HammerConfig config;
    config.seedEnd = 300;
    Hammer hammer(config);
    engine::EngineConfig engine_config;
    engine::Engine engine(engine_config);
    CampaignSummary summary = hammer.run(engine);

    EXPECT_TRUE(summary.complete());
    EXPECT_EQ(summary.tested, 300u);
    EXPECT_TRUE(summary.violationSeeds.empty())
        << summary.render();

    // The paper's exception machinery must actually be exercised.
    EXPECT_GT(summary.features.svc, 0u);
    EXPECT_GT(summary.features.eret, 0u);
    EXPECT_GT(summary.features.interrupt, 0u);
    EXPECT_GT(summary.features.handler, 0u);
    EXPECT_GT(summary.features.barrier, 0u);
    EXPECT_GT(summary.features.acqRel, 0u);
    EXPECT_GT(summary.features.rmw, 0u);
    EXPECT_GT(summary.features.dep, 0u);
    EXPECT_GT(summary.features.pair, 0u);
    EXPECT_GT(summary.features.threads3, 0u);
}

} // namespace
} // namespace rex::gen
