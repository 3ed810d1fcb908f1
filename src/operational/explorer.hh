/**
 * @file
 * Exhaustive exploration of the operational machine: enumerates every
 * reachable final state, used to check the simulator sound against the
 * axiomatic model — every operationally reachable outcome must be
 * axiomatically allowed.
 *
 * Each state expands Machine::persistentSet(): one thread's Issue alone
 * where that reaches every final state the full set of enabled
 * transitions reaches, all of them otherwise. The outcome set and
 * condition reachability are those of the full state graph; the state
 * count is smaller.
 *
 * The search is a depth-first walk memoised on the machine's state,
 * split into segments: one per thread, one for memory and its write
 * versions, one for the GIC (Machine::segmentKey()). Each segment's
 * compact byte key is interned in its own exact table, and the visited
 * set holds the tuple of segment ids; every table compares full bytes,
 * so states are merged only when they are equal. A successor re-encodes
 * and re-interns only the segments its transition moved. DFS frames are
 * reused by depth; a successor is built in the frame above its parent
 * by restoring only the segments that differ from the parent, so no
 * successor allocates once the frames have grown (docs/OPERATIONAL.md).
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
 * @param max_states cap on distinct visited states, at most
 *        UINT32_MAX (a larger cap is a fatal error).
 */
ExploreResult explore(const LitmusTest &test, const CoreProfile &profile,
                      std::size_t max_states = 2'000'000);

} // namespace rex::op

#endif // REX_OPERATIONAL_EXPLORER_HH
