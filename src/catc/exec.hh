/**
 * @file
 * The catc executor: constant folding plus the per-candidate dispatch
 * loop.
 *
 * Splitting the fold in two keeps every stage's work proportional to
 * what can actually change:
 *  - A FoldPlan is the *structural* analysis of one Program: which ops
 *    are witness-dependent, the ascending per-check dependency lists,
 *    which checks resolve at fold time. It depends on nothing but the
 *    bytecode, so the program cache shares one plan per compiled
 *    program across every shard, worker, and checkTest call.
 *  - A FoldedProgram binds a plan to one trace combination: it
 *    evaluates every constant op (the witness-independent relations get
 *    baked into registers), resolves the constant checks to fixed
 *    outcomes (dead-code elimination: their ops never run again), and
 *    per candidate executes only the witness-dependent tails through
 *    one switch dispatch loop.
 *
 * refold() moves a FoldedProgram to the next trace combination. Since
 * combinations of one test usually differ only in read values — which
 * no static input depends on — it compares the combination's static
 * signature first and becomes a near-free no-op on a match.
 *
 * Two evaluation modes:
 *  - runFast(): verdict only. Checks are visited in descending
 *    measured-failure order (most-selective first, stable on ties) and
 *    short-circuit on the first failure; acyclicity uses
 *    Relation::hasCycle() (no closure, no cycle extraction).
 *  - runAttributed(): program order, and the first failure carries its
 *    axiom name and cycle with exactly the interpreter's semantics
 *    (acyclic -> findCycle of the pre-closure value, irreflexive ->
 *    first reflexive event as a 1-cycle).
 *
 * Both modes agree on the verdict; callers use runAttributed() only
 * when the failure diagnostic is actually needed (the checker's
 * first-satisfying-rejection), mirroring the staged checker.
 *
 * Not thread-safe: one FoldedProgram per accumulator/shard. A FoldPlan
 * is immutable after construction and safe to share across threads.
 */

#ifndef REX_CATC_EXEC_HH
#define REX_CATC_EXEC_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "axiomatic/model.hh"
#include "catc/bytecode.hh"

namespace rex::engine { class CancelToken; }

namespace rex::catc {

/** The combination-invariant structural analysis of one Program. */
class FoldPlan
{
  public:
    /**
     * Analyse @p program: witness-dependence per op, dependency lists
     * per check. @p program must have been verify()'d (kinds filled)
     * and must outlive the plan.
     */
    explicit FoldPlan(const Program &program);

    const Program &program() const { return *_program; }

    /** Witness-dependent ops (the per-candidate tail). */
    std::size_t liveOps() const { return _liveOps; }

    /** Checks over constant registers (resolved at fold time). */
    std::size_t constChecks() const { return _constChecks; }

  private:
    friend class FoldedProgram;

    const Program *_program;
    std::vector<std::uint8_t> _isConst;   //!< per op
    std::vector<std::uint32_t> _constOps; //!< const ops, ascending
    std::vector<std::uint8_t> _checkConst; //!< per check
    /** Per check: its witness-dependent ops, ascending. */
    std::vector<std::vector<std::uint32_t>> _deps;
    std::size_t _liveOps = 0;
    std::size_t _constChecks = 0;
};

/** A program constant-folded against one trace combination. */
class FoldedProgram
{
  public:
    /**
     * Fold @p plan's program against @p cand's skeleton. @p plan is
     * borrowed and must outlive this object (the program cache's plans
     * live for the process; see catc/cache.hh).
     */
    FoldedProgram(const FoldPlan &plan, const CandidateExecution &cand);

    /** Convenience for one-off folds (tests, tools): analyses
     *  @p program privately, then folds against @p cand. */
    FoldedProgram(const Program &program, const CandidateExecution &cand);

    /**
     * Re-fold for a new trace combination of the same program, reusing
     * the plan and the register storage. When the new combination's
     * static signature matches the folded one — common for
     * combinations that differ only in read values — this is a
     * near-free no-op; otherwise the constant ops and constant checks
     * re-run. Measured failure counts survive either way, so the fast
     * path's selectivity ordering keeps learning across combinations.
     */
    void refold(const CandidateExecution &cand);

    /** Verdict-only check; failedAxiom/cycle are never filled. A
     *  tripped @p cancel token aborts before the witness tail runs. */
    ModelResult runFast(const CandidateExecution &cand,
                        const engine::CancelToken *cancel = nullptr);

    /** Program-order check; the first failure carries axiom + cycle. */
    ModelResult runAttributed(const CandidateExecution &cand,
                              const engine::CancelToken *cancel = nullptr);

    /** Ops surviving the fold (witness-dependent tail), for tests. */
    std::size_t liveOps() const { return _plan->liveOps(); }

    /** Checks resolved entirely at fold time, for tests. */
    std::size_t constChecks() const { return _plan->constChecks(); }

  private:
    struct RegValue {
        Relation rel;
        EventSet set;
    };

    /** A check's fold-time resolution (when its register is const). */
    struct ConstOutcome {
        bool known = false;
        bool passed = true;
        std::optional<std::vector<EventId>> cycle;
    };

    /**
     * The per-event fields the static (non-witness) inputs depend on.
     * Deliberately excludes read values and GIC payload fields: trace
     * combinations that differ only there share every folded register.
     * Must stay in sync with loadInputRel/loadInputSet (bytecode.cc) —
     * any new Input whose value depends on another Event field needs
     * that field added here.
     */
    struct EventSig {
        EventKind kind;
        ThreadId tid;
        LocationId loc;
        AccessFlags flags;
        bool initial;
        BarrierKind barrier;
        ExceptionClass exceptionClass;

        bool operator==(const EventSig &) const = default;
    };

    /** Static signature of the folded combination (see refold()). */
    struct StaticSig {
        std::vector<EventSig> events;
        Relation po, iio, addr, data, ctrl, rmw;
    };

    void fold(const CandidateExecution &cand);
    void executePending(const CandidateExecution &cand);
    bool gatherPending(const std::vector<std::uint32_t> &deps);
    bool matchesStatic(const CandidateExecution &cand) const;
    void captureStatic(const CandidateExecution &cand);
    bool checkPassesFast(std::size_t index);
    ConstOutcome evalOutcome(std::size_t index) const;

    std::shared_ptr<const FoldPlan> _owned; //!< set by the Program ctor
    const FoldPlan *_plan;
    std::size_t _n = 0;

    std::vector<RegValue> _regs;
    std::vector<ConstOutcome> _constOutcome; //!< per check
    std::vector<std::uint64_t> _failures;    //!< per check (selectivity)
    std::vector<std::uint32_t> _order;       //!< fast-mode visit order
    bool _orderDirty = true;                 //!< failure counts changed
    StaticSig _sig;                          //!< folded combination's

    // Per-run scratch: epoch-tagged "already executed" marks and the
    // pending-op list the dispatch loop consumes.
    std::vector<std::uint64_t> _doneEpoch;
    std::uint64_t _epoch = 0;
    std::vector<std::uint32_t> _pending;
};

} // namespace rex::catc

#endif // REX_CATC_EXEC_HH
