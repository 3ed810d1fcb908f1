/**
 * @file
 * The executable-as-test-oracle checker (§5.1): is a litmus test's final
 * state observable under the model?
 *
 * Candidate checking runs on the enumerator's staged fast path and
 * the compiled Figure 9 program (catc): per trace combination the
 * program's witness-independent part is folded once, the coherence
 * pre-filter skips the model for SC-per-location-violating candidates,
 * and candidates are visited in a reusable buffer. checkTestNaive() is
 * the reference that the parity tests compare against: the naive
 * enumeration evaluated by the cat interpreter. Both produce identical
 * CheckResults.
 *
 * Every check is one walk over the staged candidates in enumeration
 * order, with two halves chosen by whether a usable thread pool was
 * supplied. The serial half is one forEachStaged() pass with one
 * accumulator and never plans. The pooled half plans the candidate
 * space into shards (CandidateEnumerator::planShards), checks them in
 * parallel and merges them in order: counts, forbidding axiom/cycle,
 * and the first witness are identical to the serial half, including
 * under stop_at_first (shards past the earliest witnessing shard are
 * cancelled cooperatively and never merged), and under a candidate
 * ceiling (the pooled half cuts its plan at the ceiling, so it admits
 * the same candidates as the serial half). checkTest() walks from
 * the first candidate and keeps every admitted one; checkShardRange()
 * walks from a plan cursor and reads the resolved prefix, which is what
 * continuation tokens resume.
 */

#ifndef REX_AXIOMATIC_CHECKER_HH
#define REX_AXIOMATIC_CHECKER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "axiomatic/model.hh"
#include "axiomatic/params.hh"
#include "events/candidate.hh"
#include "litmus/litmus.hh"

namespace rex {

namespace engine {
class ThreadPool;
class Governor;
} // namespace engine

/** Result of checking one litmus test against the model. */
struct CheckResult {
    /** True when some consistent candidate satisfies the condition. */
    bool observable = false;

    /** Total candidate executions enumerated. */
    std::size_t candidates = 0;

    /** Candidates consistent with the model. */
    std::size_t consistent = 0;

    /** Consistent candidates satisfying the final condition. */
    std::size_t witnesses = 0;

    /** Candidates flagged constrained-unpredictable (s1.2): the verdict
     *  carries no architectural guarantee when this is non-zero. */
    std::size_t constrainedUnpredictable = 0;

    /** Candidates with UNKNOWN-tinged pair-fault side effects (s6). */
    std::size_t unknownSideEffects = 0;

    /** A witnessing execution, when observable and requested. */
    std::optional<CandidateExecution> witness;

    /** Failed axiom of the first condition-satisfying candidate the
     *  model rejected — the forbidding explanation when Forbidden. */
    std::string forbiddingAxiom;

    /** That candidate's forbidding cycle (cyclicity failures only). */
    std::vector<EventId> forbiddingCycle;

    /**
     * Budget axis that stopped the check ("deadline", "candidates",
     * "cancelled"); empty when the check ran to its normal
     * conclusion. When set, every count above is a partial statistic —
     * except under stop_at_first with witnesses > 0, where a found
     * witness settles the verdict and this stays empty.
     */
    std::string exhaustedAxis;

    /** True when this result settles the query (exhaustedAxis empty). */
    bool complete() const { return exhaustedAxis.empty(); }
};

/** Does the final condition hold in this candidate? */
inline bool
condHolds(const CandidateExecution &candidate, const Condition &cond)
{
    return conditionHolds(cond, candidate);
}

/**
 * The one verdict merge: fold @p later, the piece of the same walk that
 * follows @p earlier in enumeration order, into @p earlier. Counts add;
 * the earlier piece's first forbidding axiom (with its cycle) and its
 * witness win; observable = witnesses > 0. The merged piece stops
 * where @p later stopped (its exhaustedAxis), unless a witness settled
 * the verdict. The pooled walk merges its shards with this, and a
 * resumed piece is merged onto its continuation token's prefix.
 */
void mergePiece(CheckResult &earlier, CheckResult &&later);

/**
 * Check @p test under @p params, enumerating every candidate.
 * @param stop_at_first stop enumeration at the first witnessing
 *        candidate (verdict only): Allowed verdicts short-circuit
 *        instead of visiting the full candidate set.
 * @param capture_witness copy the witnessing execution into the result;
 *        pass false for verdict-only checks to skip the (relation-heavy)
 *        candidate copy.
 * @param pool when non-null (and not called from one of its workers),
 *        shard the candidate space across the pool; the merged result
 *        is byte-identical to pool == nullptr.
 * @param governor when non-null, every candidate is admitted against
 *        its budget and its CancelToken is polled throughout the
 *        stack; a trip stops the check cooperatively and sets
 *        result.exhaustedAxis (see engine/governor.hh). Null means
 *        unlimited — the exact pre-governor code path.
 */
CheckResult checkTest(const LitmusTest &test, const ModelParams &params,
                      bool stop_at_first = false,
                      bool capture_witness = true,
                      engine::ThreadPool *pool = nullptr,
                      engine::Governor *governor = nullptr);

/**
 * A slice of a staged check's plan (CandidateEnumerator::planShards):
 * the unit behind continuation tokens. Runs shards
 * [shardBegin, shardEnd), entering the first one @p inShardOffset
 * candidates past its start. Range checks are always stop_at_first and
 * witness-less (the verdict-serving configuration).
 */
struct ShardRangeSpec {
    /** First shard to run. */
    std::uint64_t shardBegin = 0;

    /** One past the last shard; clamped to the plan size. */
    std::uint64_t shardEnd = ~std::uint64_t(0);

    /** Candidates into the first shard already consumed by an earlier
     *  piece of the same check. */
    std::uint64_t inShardOffset = 0;

    /** Set when the cursor comes from a continuation token: the plan
     *  size the token was issued against. The cursor and this size are
     *  then checked against the re-derived plan before anything runs. */
    std::optional<std::uint64_t> issuedPlanSize;
};

/** What a range check produced, plus the cursor to resume from. */
struct ShardRangeOutcome {
    /** Merged counts over the contiguous range prefix that was fully
     *  resolved (exhaustedAxis set when it stopped short). */
    CheckResult result;

    /** Traces were built. False only when the budget tripped during
     *  trace construction — then no cursor exists at all. */
    bool planned = false;

    /** The spec's issued plan size or cursor does not fit the
     *  re-derived plan: nothing ran. */
    bool cursorRefused = false;

    /** Total shards in the full plan. Set when the check needed the
     *  plan: a pooled walk, a token's cursor to check, or a resume
     *  cursor to hand back; 0 otherwise. */
    std::uint64_t planSize = 0;

    /** The whole requested range merged without a witness. */
    bool completed = false;

    /** Resume cursor when the range stopped short of both a witness
     *  and its end: the first shard (and candidate offset within it)
     *  not yet resolved. */
    std::uint64_t nextShard = 0;
    std::uint64_t nextOffset = 0;
};

/**
 * Check a contiguous range of @p test's shard plan under @p params.
 *
 * The same walk as checkTest(), started at the spec's cursor and read
 * as a prefix: the result covers exactly the candidates before the
 * returned cursor, which always points at the first candidate whose
 * model evaluation did not finish (an admitted candidate aborted
 * mid-clause is rolled back out of the counts and re-visited by the
 * next piece). Resumed-in-pieces runs therefore merge to results
 * byte-identical to a single uninterrupted run at any split point. The
 * plan is a pure function of the test and is never truncated by a
 * budget trip, so equal tests agree on what "shard i" means across
 * processes and machines.
 *
 * @param pool     as checkTest(): shard-level parallelism within the
 *                 range; the merged result is identical to serial.
 * @param governor as checkTest(); a trip yields a partial outcome with
 *                 a cursor instead of a completed one.
 */
ShardRangeOutcome checkShardRange(const LitmusTest &test,
                                  const ModelParams &params,
                                  const ShardRangeSpec &spec,
                                  engine::ThreadPool *pool = nullptr,
                                  engine::Governor *governor = nullptr);

/**
 * Visit every candidate of @p test that @p params's compiled Figure 9
 * program accepts, in enumeration order: the program is folded once
 * per trace combination and run in fast mode on each coherent
 * candidate; the coherence pre-filter rejects the rest unrun. The
 * walk behind allowed-outcome sets (the soundness hammer, the CLI's
 * exhaustive listing).
 * @param governor when non-null, admits each candidate against its
 *        budget and its token is polled
 * @return false when the budget stopped the walk short: the visits so
 *         far are then only a prefix
 */
bool forEachConsistent(
    const LitmusTest &test, const ModelParams &params,
    const std::function<void(const CandidateExecution &)> &visit,
    engine::Governor *governor = nullptr);

/** The reference path: fresh candidate copy per witness assignment
 *  (CandidateEnumerator::forEachNaive), each evaluated by the cat
 *  interpreter on the shipped model (cat::CatModel::check). Exists for
 *  parity testing only. */
CheckResult checkTestNaive(const LitmusTest &test,
                           const ModelParams &params,
                           bool stop_at_first = false,
                           bool capture_witness = true);

/** Convenience: just the Allowed/Forbidden verdict, short-circuiting on
 *  the first witness and skipping the witness copy. */
inline bool
isAllowed(const LitmusTest &test, const ModelParams &params)
{
    return checkTest(test, params, true, false).observable;
}

} // namespace rex

#endif // REX_AXIOMATIC_CHECKER_HH
