/**
 * @file
 * Exhaustive exploration of the operational machine: enumerates every
 * reachable final state, used to check the simulator sound against the
 * axiomatic model — every operationally reachable outcome must be
 * axiomatically allowed.
 *
 * The search is a depth-first walk over the machine's flat states (see
 * machine.hh). Every distinct state is stored once in a byte arena and
 * indexed by an open-addressing table; a hash match is confirmed with
 * an exact comparison of the state bytes, so two states are merged only
 * when they are equal. A frame is just the index of its state in the
 * arena plus its enabled transitions; stepping copies the state into
 * the machine and applies one transition.
 *
 * Partial-order reduction: when some thread's next Issue is local
 * (Machine::issueIsLocal), a state expands that Issue alone, a
 * persistent set of size one (Godefroid, "Partial-Order Methods for the
 * Verification of Concurrent Systems", LNCS 1032). It is sound:
 *  - A local Issue reads and writes only its own thread's header,
 *    registers and sysregs, and appends an op. It never reads memory
 *    and does not touch the GIC.
 *  - It therefore commutes with every other thread's transitions. It
 *    also commutes with its own thread's Satisfy and Commit, which only
 *    complete older ops and make registers ready, and never look at
 *    younger ops. The one difference between the two orders is the
 *    value of a register whose source is still pending, and that value
 *    is never read before the source rewrites it.
 *  - It stays enabled under all of those transitions: they only
 *    complete ops and make registers ready.
 *  - The thread's own TakeInterrupt, which would compete with it for
 *    the pc, cannot become enabled first: the predicate rejects a
 *    thread that another thread's SGI could interrupt. Without that
 *    guard, RCU-MP loses outcomes.
 *  - A thread finishes only through Issue, and a done() state has no
 *    enabled transition. So every reachable done state is reachable
 *    through that Issue first: the reachable done states, and so the
 *    outcome set, are unchanged.
 * The reduced search visits a subset of the states the full search
 * visits, so a cap that does not stop the full search does not stop it
 * either; over 20,000 random hammer seeds it visits about 7.5x fewer.
 *
 * The arena, the table and the DFS stack are kept per thread between
 * calls (up to 1 MiB; larger ones are freed), so a campaign of small
 * tests reuses the same memory instead of growing the heap again for
 * every test.
 */

#ifndef REX_OPERATIONAL_EXPLORER_HH
#define REX_OPERATIONAL_EXPLORER_HH

#include <set>
#include <string>

#include "litmus/litmus.hh"
#include "operational/machine.hh"
#include "operational/profile.hh"

namespace rex::op {

/** Result of exhaustive exploration. */
struct ExploreResult {
    /** Keys of all reachable final outcomes. */
    std::set<std::string> outcomes;

    /** True when some reachable outcome satisfies the condition. */
    bool conditionReachable = false;

    /** Number of distinct states visited. */
    std::size_t statesVisited = 0;

    /** True when exploration hit the state cap and stopped early. */
    bool truncated = false;
};

/**
 * Exhaustively explore @p test on @p profile.
 * @param max_states cap on distinct visited states.
 */
ExploreResult explore(const LitmusTest &test, const CoreProfile &profile,
                      std::size_t max_states = 2'000'000);

} // namespace rex::op

#endif // REX_OPERATIONAL_EXPLORER_HH
