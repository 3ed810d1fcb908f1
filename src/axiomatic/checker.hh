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
 * the retained pre-staging reference that the parity tests compare
 * against; both produce identical CheckResults.
 *
 * When a thread pool is supplied, a test's candidate space is split
 * into shards checked in parallel and merged deterministically in
 * enumeration order: counts, forbidding axiom/cycle, and the first
 * witness are identical to the serial path, including under
 * stop_at_first (shards past the earliest witnessing shard are
 * cancelled cooperatively and never merged).
 */

#ifndef REX_AXIOMATIC_CHECKER_HH
#define REX_AXIOMATIC_CHECKER_HH

#include <cstddef>
#include <cstdint>
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
     * "memory", "cancelled"); empty when the check ran to its normal
     * conclusion. When set, every count above is a partial statistic —
     * except under stop_at_first with witnesses > 0, where a found
     * witness settles the verdict and this stays empty.
     */
    std::string exhaustedAxis;

    /** True when this result settles the query (exhaustedAxis empty). */
    bool complete() const { return exhaustedAxis.empty(); }
};

/** Does the final condition hold in this candidate? */
bool condHolds(const CandidateExecution &candidate, const Condition &cond);

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

/** Witness assignments per shard in the deterministic check plan:
 *  large enough to amortise the per-shard program fold, small
 *  enough to split tiny tests. Continuation tokens address shards by
 *  index into a plan built with exactly this target, so it is part of
 *  the continuation fingerprint. */
inline constexpr std::uint64_t kCheckShardTarget = 256;

/**
 * A shard-granular slice of a staged check — the unit behind
 * continuation tokens: run shards
 * [shardBegin, shardEnd) of the deterministic kCheckShardTarget-style
 * plan, entering the first shard @p inShardOffset candidates past its
 * start. Range checks are always stop_at_first and witness-less (the
 * verdict-serving configuration).
 */
struct ShardRangeSpec {
    /** Witness assignments per shard the plan is built with. */
    std::uint64_t planTarget = kCheckShardTarget;

    /** First shard to run. */
    std::uint64_t shardBegin = 0;

    /** One past the last shard; clamped to the plan size. */
    std::uint64_t shardEnd = ~std::uint64_t(0);

    /** Candidates into the first shard already consumed by an earlier
     *  piece of the same check. */
    std::uint64_t inShardOffset = 0;
};

/** What a range check produced, plus the cursor to resume from. */
struct ShardRangeOutcome {
    /** Merged counts over the contiguous range prefix that was fully
     *  resolved (exhaustedAxis set exactly like checkTest()). */
    CheckResult result;

    /** Traces + plan were built. False only when the budget tripped
     *  during trace construction — then no cursor exists at all. */
    bool planned = false;

    /** Total shards in the full plan (valid when planned). */
    std::uint64_t planSize = 0;

    /** A witness settled the range: the verdict is Allowed. */
    bool witnessed = false;

    /** The whole requested range merged without a witness. */
    bool completed = false;

    /** Resume cursor when neither witnessed nor completed: the first
     *  shard (and candidate offset within it) not yet resolved. */
    std::uint64_t nextShard = 0;
    std::uint64_t nextOffset = 0;
};

/**
 * Check a contiguous range of @p test's shard plan under @p params.
 *
 * The plan is re-derived deterministically (never truncated by a
 * budget trip, unlike checkTest's sharded path), so equal
 * (test, planTarget) pairs agree on what "shard i" means across
 * processes and machines. Resumed-in-pieces runs merge to results
 * byte-identical to a single uninterrupted run at any split point: the
 * returned cursor always points at the first candidate whose model
 * evaluation did not finish (an admitted candidate aborted mid-clause
 * is rolled back out of the counts and re-visited by the next piece).
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

/** The retained pre-staging reference path: fresh candidate copy per
 *  witness assignment, full (unstaged) model check per candidate.
 *  Exists for parity testing only. */
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
