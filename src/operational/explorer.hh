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
