/**
 * @file
 * Structured litmus synthesis: deterministic, seed-keyed generation of
 * well-formed litmus tests directly over the src/isa vocabulary.
 *
 * Each seed fully determines one test (base/rng.hh xorshift64*): random
 * thread counts and op mixes — loads, stores, barriers, address/data/
 * control dependency chains, acquire/release pairs, exclusive-pair
 * RMWs, LDP/STP pairs — plus the paper-specific constructs: SVC
 * exception-entry boundaries, ERET returns, and asynchronous interrupts
 * pended at labels (routed through the operational machine's
 * TakeInterrupt machinery). Generation budgets per-thread loads and
 * stores so the axiomatic candidate space stays tractable, which is
 * what lets the soundness hammer (gen/hammer.hh) push millions of
 * tests through both semantics.
 */

#ifndef REX_GEN_GENERATOR_HH
#define REX_GEN_GENERATOR_HH

#include <cstdint>

#include "gen/spec.hh"

namespace rex::gen {

/** Synthesis knobs. The defaults describe the hammer's corpus; the
 *  migrated tests/test_fuzz.cc corpus uses the same defaults. */
struct GenConfig {
    /** Chance (percent) of a third thread. Three-thread tests get
     *  tighter per-thread budgets to bound the candidate space. */
    unsigned threeThreadPercent = 12;

    /** Ops per thread: 2 .. maxOpsPerThread. */
    unsigned maxOpsPerThread = 5;

    /** Per-thread access budgets (a pair op counts as two accesses,
     *  an RMW as one load and one store). */
    unsigned maxLoadsPerThread = 2;
    unsigned maxStoresPerThread = 2;

    /** Chance (percent) a thread takes an exception boundary (then
     *  split ~evenly between SVC entry and a pended interrupt). */
    unsigned exceptionPercent = 35;

    /** Construct toggles. */
    bool svc = true;
    bool interrupts = true;
    bool eret = true;
    bool rmw = true;
    bool pairs = true;
    bool acqRel = true;
    bool deps = true;
};

/** A synthesized test: the IR, its rendered source, and its feature
 *  flags. `source` is always render(spec). For callers that want the
 *  text; the soundness check takes the spec alone. */
struct GeneratedTest {
    TestSpec spec;
    std::string source;
    Features features;
};

/** Package @p spec as a GeneratedTest (render + feature scan). */
GeneratedTest packageSpec(TestSpec spec);

/** The spec of @p seed. Deterministic: same seed and config, equal
 *  spec — across runs, platforms, and job counts. */
TestSpec generateSpec(std::uint64_t seed, const GenConfig &config);

/** generateSpec(seed, config), packaged with its source. */
GeneratedTest generate(std::uint64_t seed, const GenConfig &config);

} // namespace rex::gen

#endif // REX_GEN_GENERATOR_HH
