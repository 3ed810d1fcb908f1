/**
 * @file
 * Per-job resource governor: deadlines, candidate ceilings, and
 * cooperative cancellation for candidate checking.
 *
 * A Budget declares how much a single check may consume along two
 * axes — wall clock and candidate count — and a Governor enforces it:
 * the checker calls admit() once per candidate
 * (the natural unit of work in this codebase; everything expensive
 * happens between two candidates), and the first axis to trip latches
 * into the governor's CancelToken. The token is shared by every shard
 * of a check, polled in the enumerator's odometer loop and between the
 * staged model clauses, so a trip anywhere stops work everywhere
 * within one candidate's worth of latency.
 *
 * This generalises the checker's pre-existing stop_at_first shard
 * cutoff (an atomic fetch-min that aborts shards past the earliest
 * witness) into one mechanism: the cutoff handles "a better answer
 * already exists", the token handles "the budget for any answer is
 * gone" — both are cooperative flags observed at candidate
 * granularity, never preemption.
 *
 * Axis semantics:
 *  - Candidates: exact and schedule-independent. The admitted
 *    candidates are the first min(total, maxCandidates) in enumeration
 *    order under any REX_JOBS value: the serial walk stops at the
 *    first admit() past the ceiling, and a pooled walk cuts its shard
 *    plan at the ceiling before any shard runs, so its shards never
 *    race for the shared count.
 *  - Deadline: checked against steady_clock on every admit; the trip
 *    is inherently schedule-dependent, but latency from deadline to
 *    stop is bounded by one candidate check per worker.
 *  - Cancelled: an external CancelToken (e.g. a server shedding a
 *    request) observed through the same polling points.
 *
 * A budget-tripped check yields Verdict::kExhaustedBudget downstream:
 * partial statistics (candidates visited, stage reached, tripped axis)
 * flow through the JSONL schema and rexd, and the partial result is
 * never cached. With no budget configured the governor is bypassed
 * entirely (null pointer), so unbudgeted runs are byte-identical to
 * pre-governor output.
 */

#ifndef REX_ENGINE_GOVERNOR_HH
#define REX_ENGINE_GOVERNOR_HH

#include <atomic>
#include <chrono>
#include <cstdint>

namespace rex::engine {

/** The budget axis that stopped a job (None = still within budget). */
enum class BudgetAxis : std::uint8_t {
    None = 0,
    Deadline,    //!< wall-clock deadline passed
    Candidates,  //!< candidate-count ceiling reached
    Cancelled,   //!< an external CancelToken tripped
};

/** Stable lower-case name of @p axis ("deadline", "candidates", ...). */
const char *budgetAxisName(BudgetAxis axis);

/** Resource limits for one check; 0 on any axis means unlimited. */
struct Budget {
    /** Wall-clock deadline in microseconds from governor creation. */
    std::uint64_t deadlineMicros = 0;

    /** Candidate-execution ceiling (exact, schedule-independent). */
    std::uint64_t maxCandidates = 0;

    bool
    unlimited() const
    {
        return deadlineMicros == 0 && maxCandidates == 0;
    }

    /** Convenience: a budget with only a deadline, in milliseconds. */
    static Budget
    withDeadlineMs(std::uint64_t ms)
    {
        Budget budget;
        budget.deadlineMicros = ms * 1000;
        return budget;
    }
};

/**
 * A latching cancellation flag shared across the threads of one job.
 * The first trip() wins and records its axis; cancelled() is a single
 * relaxed load, cheap enough to poll per candidate and per odometer
 * step.
 */
class CancelToken
{
  public:
    /** Latch the token; the first caller's @p axis is recorded. */
    void
    trip(BudgetAxis axis) const
    {
        std::uint8_t expected = 0;
        _axis.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(axis),
            std::memory_order_relaxed);
    }

    /**
     * Arm a wall-clock deadline: once steady_clock passes @p when, any
     * cancelled() poll trips the Deadline axis. This puts the deadline
     * check at every polling site — crucially including the phases
     * that run *between* candidate admissions (shard planning, the
     * compiled model's folds and witness tails), which on a large
     * test can individually outlast the whole budget. Call before the
     * token is shared; not thread-safe against concurrent polls.
     */
    void
    armDeadline(std::chrono::steady_clock::time_point when)
    {
        _deadline = when;
        _deadlineArmed.store(true, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        if (_axis.load(std::memory_order_relaxed) != 0)
            return true;
        if (_deadlineArmed.load(std::memory_order_acquire) &&
                std::chrono::steady_clock::now() >= _deadline) {
            trip(BudgetAxis::Deadline);
            return true;
        }
        return false;
    }

    BudgetAxis
    axis() const
    {
        return static_cast<BudgetAxis>(
            _axis.load(std::memory_order_relaxed));
    }

  private:
    /** Mutable: polling through a const pointer may latch the trip —
     *  the token is logically const once armed. */
    mutable std::atomic<std::uint8_t> _axis{0};
    std::atomic<bool> _deadlineArmed{false};
    std::chrono::steady_clock::time_point _deadline{};
};

/**
 * Enforces one Budget over one check. Thread-safe: every shard of a
 * sharded check calls admit() on the same governor.
 */
class Governor
{
  public:
    /**
     * @param budget   the limits to enforce (axes with 0 are off)
     * @param external an externally owned token to honour in addition
     *                 to the budget (tripping it stops the job with
     *                 axis Cancelled); may be null
     * @param live     when non-null, incremented once per admitted
     *                 candidate (relaxed) — the engine points this at
     *                 its live enumeration-progress gauge
     */
    explicit Governor(Budget budget,
                      const CancelToken *external = nullptr,
                      std::atomic<std::uint64_t> *live = nullptr);

    /**
     * Account one candidate against the budget.
     * @return true to proceed; false when the budget has tripped (the
     *         candidate is NOT counted as visited in that case).
     */
    bool admit();

    /** The limits this governor enforces. */
    const Budget &budget() const { return _budget; }

    /** Latch @p axis as tripped (the first trip wins). A pooled check
     *  that cut its plan at the candidate ceiling latches Candidates
     *  here, since no admit() of it ever reached the ceiling. */
    void trip(BudgetAxis axis) { _token.trip(axis); }

    /** True once any axis has tripped. */
    bool tripped() const { return _token.cancelled(); }

    /** The axis that tripped (None while within budget). */
    BudgetAxis trippedAxis() const { return _token.axis(); }

    /** Candidates admitted so far (exact). */
    std::uint64_t
    candidatesVisited() const
    {
        return _admitted.load(std::memory_order_relaxed);
    }

    /**
     * The shared token, for polling sites below the checker (the
     * enumerator's odometer, the staged model clauses, shard startup).
     */
    const CancelToken *token() const { return &_token; }

    /**
     * Record the deepest pipeline stage reached ("plan", "enumerate",
     * "merge"). @p stage must point at static storage.
     */
    void
    noteStage(const char *stage)
    {
        _stage.store(stage, std::memory_order_relaxed);
    }

    /** Last stage noted; "" before any noteStage(). */
    const char *
    stageReached() const
    {
        const char *stage = _stage.load(std::memory_order_relaxed);
        return stage ? stage : "";
    }

    /** Microseconds since construction. */
    std::uint64_t elapsedMicros() const;

  private:
    Budget _budget;
    const CancelToken *_external;
    CancelToken _token;
    std::chrono::steady_clock::time_point _start;
    std::atomic<std::uint64_t> _admitted{0};
    std::atomic<std::uint64_t> *_live;
    std::atomic<const char *> _stage{nullptr};
};

} // namespace rex::engine

#endif // REX_ENGINE_GOVERNOR_HH
