/**
 * @file
 * Cycle-driven litmus synthesis (the diy idiom): enumerate tests from
 * cycles of relaxed-memory relations and emit, for each cycle, the
 * minimal program whose final condition observes exactly that cycle.
 *
 * An edge names a step of the candidate-execution cycle the test is
 * built around: the communication relations rf/co/fr taken externally
 * (Rfe/Coe/Fre — these advance to a new thread, same location), and
 * program-order steps taken internally (these stay on the thread and
 * advance to a new location): plain po, po through a DMB SY, addr/
 * data/ctrl dependencies, and — the paper-specific extension — po
 * across an exception boundary: SVC entry into the handler (the
 * `ctxob` edges of Figure 9), ERET back out of it, and a pended
 * asynchronous interrupt into the handler (the `asyncob` machinery).
 *
 * Edge names encode src/dst event types: `SvcdWR` is a write before
 * the SVC followed by a read inside the handler. A cycle is valid when
 * the event types chain up around the loop, threads (external edges)
 * number 2..maxThreads, locations (internal edges) number
 * 1..maxLocations, and the exception edges respect per-thread section
 * order (Svc/Int from the body, Eret from the handler, at most one
 * entry per thread). Values and the final condition follow the classic
 * diy recipe: per location, writes take values 1,2,… in coherence
 * order, every Rfe reader must see its writer, every initial Fre
 * reader must see the co-predecessor (or 0), and the location's final
 * value pins the co-last write.
 */

#ifndef REX_GEN_CYCLE_HH
#define REX_GEN_CYCLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generator.hh"
#include "gen/spec.hh"

namespace rex::gen {

/** One relation step of a cycle. */
enum class EdgeKind : std::uint8_t {
    // External communication edges (new thread, same location).
    Rfe,   //!< W -> R: reads-from, external
    Fre,   //!< R -> W: from-read, external
    Coe,   //!< W -> W: coherence, external

    // Internal program-order edges (same thread, new location).
    PodRR, PodRW, PodWR, PodWW,
    DmbdRR, DmbdRW, DmbdWR, DmbdWW,      //!< po with a DMB SY between
    DpAddrdRR,                           //!< address dependency R -> R
    DpAddrdRW,                           //!< address dependency R -> W
    DpDatadRW,                           //!< data dependency R -> W
    DpCtrldRW,                           //!< control dependency R -> W

    // Exception-boundary edges (same thread, new location).
    SvcdRR, SvcdRW, SvcdWR, SvcdWW,      //!< src in body, dst in handler
    EretdRR, EretdWW,                    //!< src in handler, dst after ERET
    IntdRR, IntdRW, IntdWR, IntdWW,      //!< dst in async-interrupt handler
};

/** Static properties of an edge kind. */
struct EdgeInfo {
    const char *name;
    bool external;    //!< advances to a new thread (com edge)
    bool srcIsWrite;  //!< event type at the edge's source
    bool dstIsWrite;  //!< event type at the edge's destination
};

const EdgeInfo &edgeInfo(EdgeKind kind);

/** A cycle: the edge sequence, walked from thread 0's first event.
 *  Valid cycles always end on an external edge (closing the loop back
 *  to thread 0). */
struct Cycle {
    std::vector<EdgeKind> edges;
};

/** Deterministic display/test name: "cyc" + "-<edge>" per edge. */
std::string cycleName(const Cycle &cycle);

/** Enumeration bounds. */
struct CycleConfig {
    unsigned maxEdges = 4;      //!< cycle length 2..maxEdges
    unsigned maxThreads = 3;    //!< external-edge count 2..maxThreads
    unsigned maxLocations = 3;  //!< internal-edge count 1..maxLocations
};

/**
 * Enumerate every valid cycle within @p config, deduplicated up to
 * rotation, in a deterministic order. The inventory is what the
 * hammer's cycle mode indexes by seed.
 */
std::vector<Cycle> enumerateCycles(const CycleConfig &config);

/** The spec of the litmus test observing @p cycle (must be valid). */
TestSpec cycleSpec(const Cycle &cycle);

/** cycleSpec(cycle), packaged with its source. */
GeneratedTest synthesizeCycle(const Cycle &cycle);

} // namespace rex::gen

#endif // REX_GEN_CYCLE_HH
