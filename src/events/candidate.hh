/**
 * @file
 * Candidate executions: events plus the primitive relations over them.
 *
 * A candidate execution packages one possible architecturally-executed
 * behaviour of a litmus test: the per-thread event sequences (with concrete
 * read values), the syntactic dependency relations computed by the thread
 * semantics (addr/data/ctrl), and the existentially-quantified witness
 * relations (rf, co, and — for the GIC extension — interrupt).
 *
 * The axiomatic model (src/axiomatic, src/cat) consumes candidates
 * read-only and decides whether each is consistent.
 */

#ifndef REX_EVENTS_CANDIDATE_HH
#define REX_EVENTS_CANDIDATE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "events/event.hh"
#include "isa/register.hh"
#include "relation/relation.hh"

namespace rex {

/**
 * One candidate execution of a litmus test.
 */
class CandidateExecution
{
  public:
    /** All events; Event::id equals the index. Initial writes first. */
    std::vector<Event> events;

    /** Names of memory locations, indexed by LocationId. */
    std::vector<std::string> locNames;

    /** Number of (real) threads. */
    std::size_t numThreads = 0;

    // ------------------------------------------------------------------
    // Primitive relations. All have universe size events.size().
    // ------------------------------------------------------------------

    /** Program order (per thread, initial writes excluded). */
    Relation po;

    /** Intra-instruction order: GIC effect events after the register
     *  access that caused them (§7.5). */
    Relation iio;

    /** Address dependencies: R -> memory access whose address depends on
     *  the read value. */
    Relation addr;

    /** Data dependencies: R -> W (or R -> MSR) whose written value depends
     *  on the read value. */
    Relation data;

    /** Control dependencies: R -> any event po-after a branch whose
     *  condition depends on the read value. */
    Relation ctrl;

    /** Load/store-exclusive pairs (LDXR -> matching STXR). */
    Relation rmw;

    /** Reads-from witness: W -> R, same location and value. */
    Relation rf;

    /** Coherence witness: per-location strict total order on writes,
     *  initial write first. */
    Relation co;

    /** GIC witness: GenerateInterrupt -> TakeInterrupt it caused (§7.5). */
    Relation interruptWitness;

    // ------------------------------------------------------------------
    // Final architectural state, filled in by the thread semantics.
    // ------------------------------------------------------------------

    /** Final general-purpose register values, per thread. */
    std::vector<std::array<std::uint64_t, isa::kNumRegs>> finalRegs;

    /** Some thread triggered constrained-unpredictable behaviour
     *  (s1.2); the model's verdict for such candidates carries no
     *  architectural guarantee. */
    bool constrainedUnpredictable = false;

    /** Some pair access faulted partially, leaving UNKNOWN-tinged side
     *  effects (s6); this candidate models the performed outcome. */
    bool unknownSideEffects = false;

    // ------------------------------------------------------------------
    // Event classification sets (cat's built-in sets).
    // ------------------------------------------------------------------

    std::size_t size() const { return events.size(); }

    EventSet allEvents() const;
    EventSet eventsOfKind(EventKind kind) const;

    EventSet reads() const;          //!< R (memory reads)
    EventSet writes() const;         //!< W (memory writes, incl. initial)
    EventSet initialWrites() const;  //!< IW
    EventSet acquires() const;       //!< A (LDAR)
    EventSet acquirePcs() const;     //!< Q (LDAPR)
    EventSet releases() const;       //!< L (STLR)

    /** Barrier events of exactly @p kind. */
    EventSet barriersOf(BarrierKind kind) const;

    /** Upwards-closed dmb ld class: DMB.LD|DMB.SY|DSB.LD|DSB.SY (§5). */
    EventSet dmbLd() const;
    /** Upwards-closed dmb st class: DMB.ST|DMB.SY|DSB.ST|DSB.SY. */
    EventSet dmbSt() const;
    /** All DSB events (any domain). */
    EventSet dsb() const;
    /** ISB events. */
    EventSet isb() const;

    EventSet takeExceptions() const;    //!< TE
    /** TE events from translation faults (FEAT_ETS2 clause). */
    EventSet translationFaults() const;
    EventSet erets() const;             //!< ERET
    EventSet mrsEvents() const;         //!< MRS
    EventSet msrEvents() const;         //!< MSR
    EventSet takeInterrupts() const;    //!< TakeInterrupt (ASYNC)
    EventSet gicEvents() const;         //!< GICEvents (§7.5)

    // ------------------------------------------------------------------
    // Derived relations.
    // ------------------------------------------------------------------

    /** Same-location equivalence on memory accesses. */
    Relation sameLoc() const;

    /** po restricted to same-location memory accesses. */
    Relation poLoc() const;

    /** Same-thread pairs (initial writes belong to no thread). */
    Relation internalPairs() const;

    Relation rfi() const;  //!< rf within a thread
    Relation rfe() const;  //!< rf across threads
    Relation fr() const;   //!< from-reads: rf^-1 ; co
    Relation fri() const;
    Relation fre() const;
    Relation coi() const;
    Relation coe() const;

    /** The final value of register @p reg of thread @p tid. */
    std::uint64_t
    finalReg(ThreadId tid, isa::RegId reg) const
    {
        return finalRegs[static_cast<std::size_t>(tid)][reg];
    }

    /**
     * The final (co-maximal) write value at @p loc; the initial value
     * when no write exists.
     */
    std::uint64_t finalMemValue(LocationId loc) const;

    /** Pretty-print the whole candidate for diagnostics. */
    std::string dump() const;

    /**
     * Render the candidate as a Graphviz dot graph in the style of the
     * paper's candidate-execution figures: one cluster per thread,
     * events labelled "a: W x=1", with po/rf/co/fr/addr/data/ctrl and
     * interrupt edges.
     */
    std::string toDot() const;

    /** Label an event like the paper's figures: "a:", "b:", ... */
    std::string eventLabel(EventId id) const;
};

} // namespace rex

#endif // REX_EVENTS_CANDIDATE_HH
