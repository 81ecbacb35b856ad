/**
 * @file
 * The structured litmus IR of the synthesizer (src/gen).
 *
 * A TestSpec is a small, mutation-friendly representation of a litmus
 * test: per-thread op lists (body, handler, post-return tail) plus the
 * paper-specific exception structure (SVC entry, ERET return, a pended
 * asynchronous interrupt at a label). The IR — not the rendered text —
 * is what the generator emits and the counterexample minimizer shrinks.
 *
 * A spec leaves the IR in one of two ways:
 *  - render() writes litmus source (parser.hh format), for everything
 *    that wants text: printing a test, promoting it into the registry,
 *    shipping it to rexd or a worker process;
 *  - lower() builds the LitmusTest directly, with no text in between.
 *    The soundness hammer and the minimizer's oracle check lowered
 *    tests, so neither renders nor parses per check.
 * The two agree: lower(spec) equals parseLitmus(render(spec)) in every
 * field but sourceText, which tests/test_gen.cc checks on the hammer's
 * random and cycle corpora and on minimizer edge shapes.
 *
 * Register conventions (mirrors the hand-written suites and the old
 * tests/test_fuzz.cc corpus):
 *   X10, X11, X12   location base addresses (x, y, z)
 *   X0..X4          load destinations (per-thread slot i -> Xi)
 *   X5              dependency-chain temporary (EOR zero idiom)
 *   X6              store data scratch
 *   X7              computed-address scratch
 *   W8              store-exclusive status
 */

#ifndef REX_GEN_SPEC_HH
#define REX_GEN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rex {
struct LitmusTest;
} // namespace rex

namespace rex::gen {

/** Bumped whenever generated output or its feature accounting can
 *  change (the hammer's checkpoint fingerprint includes it). */
inline constexpr std::uint32_t kGeneratorRevision = 2;

/** One synthesized operation (may render to several instructions). */
struct Op {
    enum class Kind : std::uint8_t {
        Load,       //!< LDR/LDAR/LDAPR dst,[base]
        Store,      //!< STR/STLR of an immediate value
        LoadPair,   //!< LDP over a location base (§6 pair machinery)
        StorePair,  //!< STP over a location base
        Rmw,        //!< LDXR ; EOR-zero ; STXR #value (exclusive pair)
        Fence,      //!< DMB/DSB/ISB
        MovImm,     //!< MOV scratch,#imm (register noise)
    };

    enum class Dep : std::uint8_t {
        None,
        Addr,  //!< EOR-zero of an earlier load feeds the address
        Data,  //!< EOR-zero of an earlier load feeds the stored value
        Ctrl,  //!< CBNZ on an earlier load guards this op
    };

    enum class Fence : std::uint8_t {
        DmbSy,
        DmbLd,
        DmbSt,
        DsbSy,
        Isb,
    };

    Kind kind = Kind::Load;

    /** Location index (into TestSpec::numLocations). */
    int loc = 0;

    /** Load destination slot (-> X<slot>); also the RMW data register. */
    int dst = 0;

    /** Stored value (Store/StorePair/Rmw). */
    std::uint64_t value = 1;

    /** Acquire/release colouring for Load/Store. */
    bool acquire = false;    //!< LDAR
    bool acquirePc = false;  //!< LDAPR
    bool release = false;    //!< STLR

    /** Dependency into this op from an earlier load of the thread. */
    Dep dep = Dep::None;

    /** Load slot the dependency reads (its X<slot> register). */
    int depOn = 0;

    /** Fence flavour (Kind::Fence). */
    Fence fence = Fence::DmbSy;

    bool isLoad() const { return kind == Kind::Load || kind == Kind::LoadPair; }
    bool isStore() const
    {
        return kind == Kind::Store || kind == Kind::StorePair;
    }
};

/** One synthesized thread. */
struct ThreadSpec {
    /** Ops before the exception boundary (or the whole thread). */
    std::vector<Op> body;

    /** Ops after the boundary (run after ERET; for interrupt threads
     *  they sit in the main program after the pend label). */
    std::vector<Op> after;

    /** Handler ops; non-empty implies a `handler N:` section. */
    std::vector<Op> handler;

    /** Body ends with `SVC #0` into the handler. */
    bool svc = false;

    /** An asynchronous interrupt is pended at a label after the body
     *  (`interrupt N at LIn`, the Isla construct of §5.1). */
    bool interrupt = false;

    /** Handler ends with ERET, resuming at `after`. */
    bool eret = false;
};

/** One conjunct of the synthesized final condition. */
struct SpecCond {
    bool memory = false;  //!< *loc = value instead of tid:X<slot> = value
    int tid = 0;
    int slot = 0;  //!< load destination slot (register X<slot>)
    int loc = 0;
    std::uint64_t value = 0;
};

/** A complete synthesized test. */
struct TestSpec {
    std::string name;
    std::vector<ThreadSpec> threads;
    int numLocations = 2;  //!< x, y, z... (≤ 3 by construction)
    std::vector<SpecCond> condition;
};

/** Generator feature counters: which constructs a test (or a whole
 *  campaign) exercises. Aggregated into the hammer's campaign summary,
 *  where coverage of the paper's exception machinery is asserted. */
struct Features {
    std::uint64_t svc = 0;        //!< tests with an SVC entry boundary
    std::uint64_t eret = 0;       //!< tests with an ERET return
    std::uint64_t interrupt = 0;  //!< tests with a pended async interrupt
    std::uint64_t handler = 0;    //!< tests with any handler code
    std::uint64_t barrier = 0;    //!< tests with a fence
    std::uint64_t acqRel = 0;     //!< tests with LDAR/LDAPR/STLR
    std::uint64_t rmw = 0;        //!< tests with an exclusive pair
    std::uint64_t dep = 0;        //!< tests with an addr/data/ctrl dep
    std::uint64_t pair = 0;       //!< tests with LDP/STP
    std::uint64_t threads3 = 0;   //!< tests with three threads

    void merge(const Features &other);
    std::string toString() const;
};

/** Per-test feature flags of @p spec (each counter 0 or 1). */
Features specFeatures(const TestSpec &spec);

/** Render @p spec as litmus source text (parser.hh format). The
 *  rendering is deterministic: equal specs produce identical bytes. */
std::string render(const TestSpec &spec);

/** The test @p spec describes, as parseLitmus(render(spec)) would
 *  build it, minus the sourceText. */
LitmusTest lower(const TestSpec &spec);

} // namespace rex::gen

#endif // REX_GEN_SPEC_HH
