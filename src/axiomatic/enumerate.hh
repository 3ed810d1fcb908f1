/**
 * @file
 * Candidate-execution enumeration.
 *
 * Plays the role of Isla's symbolic candidate generation (§5.1) by
 * explicit enumeration: per-thread traces are produced by the thread
 * semantics under a read-value domain grown to fixpoint, then the
 * existential witnesses (rf, co, interrupt) are enumerated exhaustively.
 *
 * Enumeration is *staged* (see "Staged enumeration" in DESIGN.md): per
 * trace combination a skeleton candidate is assembled once, and the
 * witness odometer mutates the rf/co/interrupt pairs of a reusable
 * candidate buffer in place (mutate-and-undo) instead of deep-copying
 * the skeleton per assignment. Each assignment is additionally screened
 * by a per-location coherence pre-filter, so consumers can skip the
 * full model evaluation for candidates the internal (SC-per-location)
 * axiom rejects anyway. The pre-PR naive path (fresh deep copy per
 * candidate, no pre-filter) is retained as forEachNaive(), the
 * reference that checkTestNaive() and the parity tests use.
 *
 * Every staged candidate has a fixed position in the check plan: the
 * witness space of each combination is cut into shards of
 * kCheckShardTarget assignments, numbered in enumeration order. A
 * position (shard, offset) is a Cursor; forEachStaged() can start at
 * one and reports each candidate's, and visitShard() reports the same
 * positions for the shards of planShards(). The checker's serial and
 * pooled walks, and the continuation tokens that resume them, all
 * address candidates this way.
 */

#ifndef REX_AXIOMATIC_ENUMERATE_HH
#define REX_AXIOMATIC_ENUMERATE_HH

#include <cstdint>
#include <functional>

#include "events/candidate.hh"
#include "litmus/litmus.hh"
#include "sem/executor.hh"

namespace rex {

namespace engine { class CancelToken; }

/** Witness assignments per shard in the deterministic check plan:
 *  large enough to amortise the per-shard program fold, small enough
 *  to split tiny tests. Continuation tokens address shards by index
 *  into this plan, so the value is part of their fingerprint. */
inline constexpr std::uint64_t kCheckShardTarget = 256;

/** Enumerates every candidate execution of a litmus test. */
class CandidateEnumerator
{
  public:
    /** Per-candidate staging facts passed to staged visitors. */
    struct StagedInfo {
        /** Index of the trace combination this candidate belongs to;
         *  consumers key per-combination caches (e.g. the compiled
         *  program's fold) on it. */
        std::uint64_t comboIndex = 0;

        /** Result of the per-location coherence pre-filter: false means
         *  po-loc | rf | co | fr has a cycle, i.e. the internal
         *  (SC-per-location) axiom is guaranteed to reject this
         *  candidate and the full model evaluation can be skipped. */
        bool coherent = true;

        /** This candidate's shard in the check plan and its offset
         *  within that shard. */
        std::uint64_t shard = 0;
        std::uint64_t offset = 0;
    };

    /** A candidate position in the check plan: shard index plus
     *  offset within the shard ({} is the first candidate). */
    struct Cursor {
        std::uint64_t shard;
        std::uint64_t offset;
    };

    /**
     * A staged visitor. The candidate reference is a *reusable buffer*:
     * it is valid only for the duration of the call and must not be
     * mutated (copy it to keep it). Return false to stop enumeration.
     */
    using StagedVisitor =
        std::function<bool(CandidateExecution &, const StagedInfo &)>;

    /** A contiguous slice of one combination's witness space. */
    struct Shard {
        std::uint64_t index = 0;   //!< position in the check plan
        std::size_t combo = 0;     //!< trace-combination index
        std::uint64_t begin = 0;   //!< first witness-odometer index
        std::uint64_t end = 0;     //!< one past the last index
    };

    /** @param cancel polled during trace computation; a trip yields an
     *  empty (zero-candidate) enumerator. */
    explicit CandidateEnumerator(
        const LitmusTest &test,
        const engine::CancelToken *cancel = nullptr);

    /**
     * Visit every candidate execution (before any model axiom is
     * applied). The visitor returns false to stop early. Runs on the
     * staged path; the candidate reference is a reusable buffer (copy
     * to keep).
     */
    void forEach(const std::function<bool(CandidateExecution &)> &visit);

    /**
     * Staged visitation: candidates plus their staging facts, in
     * enumeration order.
     * @param cancel when non-null, polled in the odometer loop (per
     *        combination and per witness step); a tripped token stops
     *        enumeration before the next candidate is assembled.
     * @param start first candidate to visit. The combinations before
     *        it are only sized, never materialized; it must lie inside
     *        the plan (callers holding an untrusted cursor check it
     *        against planShards() first).
     */
    void forEachStaged(const StagedVisitor &visit,
                       const engine::CancelToken *cancel = nullptr,
                       Cursor start = {}) const;

    /**
     * The retained pre-staging reference path: a fresh candidate is
     * materialized per witness assignment, with no pre-filter. Visits
     * the exact same candidates in the exact same order as the staged
     * path; kept for parity tests.
     */
    void forEachNaive(
        const std::function<bool(CandidateExecution &)> &visit);

    /** Number of trace combinations (product of per-thread counts). */
    std::size_t combinationCount() const;

    /**
     * The check plan: the whole candidate space in shards of at most
     * kCheckShardTarget candidates, each within one combination, in
     * global enumeration order. Concatenating the shards' candidates
     * reproduces forEachStaged() exactly, which makes parallel
     * execution with a deterministic in-order merge possible.
     * @param cancel polled once per combination; planning stops (and
     *        returns the shards planned so far) when it trips — on a
     *        large test the planning sweep alone can outlast a
     *        deadline budget.
     */
    std::vector<Shard> planShards(
        const engine::CancelToken *cancel = nullptr) const;

    /**
     * Visit one shard's candidates (thread-safe: shards build private
     * odometer state; the enumerator itself is only read). A shard
     * whose begin was advanced past its plan start is entered there;
     * positions are still reported against the plan.
     * @param cancel when non-null and already tripped, the shard's
     *        skeleton build is skipped entirely; the per-candidate
     *        stop is the visitor's job (see the checker).
     * @return false when the visitor stopped early.
     */
    bool visitShard(const Shard &shard, const StagedVisitor &visit,
                    const engine::CancelToken *cancel = nullptr) const;

    /** Number of candidate executions. */
    std::size_t count();

    /** The fixpoint read-value domain (for diagnostics/tests). */
    const sem::ValueDomain &domain() const { return _domain; }

    /** The per-thread trace sets (for diagnostics/tests). */
    const std::vector<std::vector<sem::ThreadTrace>> &traces() const
    {
        return _traces;
    }

  private:
    void computeTraces(const engine::CancelToken *cancel);

    /** The legacy copy-per-candidate combination walk (naive path). */
    void visitCombinationNaive(
        const std::vector<const sem::ThreadTrace *> &combo,
        const std::function<bool(CandidateExecution &)> &visit,
        bool &keep_going);

    /** The trace pointers of combination @p index (odometer order). */
    std::vector<const sem::ThreadTrace *> comboAt(std::size_t index) const;

    const LitmusTest &_test;
    sem::ValueDomain _domain;
    std::vector<std::vector<sem::ThreadTrace>> _traces;
};

} // namespace rex

#endif // REX_AXIOMATIC_ENUMERATE_HH
