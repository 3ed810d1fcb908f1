/**
 * @file
 * Exhaustive exploration of the operational machine: enumerates every
 * reachable final state, used to check the simulator sound against the
 * axiomatic model — every operationally reachable outcome must be
 * axiomatically allowed.
 *
 * The search is a depth-first walk memoised on Machine::stateKey(), a
 * compact byte key of only the fields the test's code can change. The
 * visited set keeps every full key and compares bytes on a hash match,
 * so states are merged only when they are equal. DFS frames are reused
 * by depth and each successor is built by copy-assignment into the
 * frame above its parent, so no successor allocates once the frames
 * have grown (docs/OPERATIONAL.md).
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
