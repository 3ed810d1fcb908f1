#include "axiomatic/checker.hh"

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "axiomatic/enumerate.hh"
#include "base/logging.hh"
#include "catc/cache.hh"
#include "catc/exec.hh"
#include "engine/crashctx.hh"
#include "engine/governor.hh"
#include "engine/pool.hh"

namespace rex {

bool
condHolds(const CandidateExecution &cand, const Condition &cond)
{
    for (const CondAtom &atom : cond.atoms) {
        switch (atom.kind) {
          case CondAtom::Kind::Register: {
            std::size_t tid = static_cast<std::size_t>(atom.tid);
            if (tid >= cand.finalRegs.size())
                return false;
            if (cand.finalRegs[tid][atom.reg] != atom.value)
                return false;
            break;
          }
          case CondAtom::Kind::Memory:
            if (cand.finalMemValue(atom.loc) != atom.value)
                return false;
            break;
        }
    }
    return true;
}

namespace {

/**
 * Folds staged candidates into a CheckResult.
 *
 * One accumulator per (serial run | shard); the compiled program's
 * per-combination fold is built lazily so verdict checks that never
 * reach the model (stop_at_first with a non-satisfying candidate, or
 * pre-filter rejection) pay nothing for it.
 */
struct StagedAccumulator {
    const LitmusTest &test;
    bool stopAtFirst;
    bool captureWitness;
    engine::Governor *governor;  //!< may be null (unlimited)
    /** Compiled model's shared fold plan; the caller keeps it alive
     *  for the whole check. */
    const catc::FoldPlan &plan;

    CheckResult result{};

    std::optional<catc::FoldedProgram> folded{};
    std::uint64_t foldedCombo = 0;

    /** Set when the last visited candidate was admitted and counted
     *  but its model run aborted on a tripped token — its verdict
     *  contribution is unresolved. */
    bool abortedPending = false;
    std::size_t abortedCU = 0;
    std::size_t abortedUnknown = 0;

    /**
     * Un-count the unresolved candidate. Only shard-range checks call
     * this (their resume cursor must point at that candidate so the
     * next piece re-visits it); whole-test paths keep the admitted
     * count, which existing consumers expect.
     */
    void
    rollbackAborted()
    {
        if (!abortedPending)
            return;
        --result.candidates;
        result.constrainedUnpredictable -= abortedCU;
        result.unknownSideEffects -= abortedUnknown;
        abortedPending = false;
    }

    /** Visit one candidate; false stops enumeration (witness found
     *  under stop_at_first, or the governor's budget tripped). */
    bool
    consume(CandidateExecution &cand,
            const CandidateEnumerator::StagedInfo &info)
    {
        // Budget admission first: a rejected candidate is not visited,
        // so the partial count on a ceiling trip is exact.
        if (governor && !governor->admit())
            return false;
        ++result.candidates;
        if (cand.constrainedUnpredictable)
            ++result.constrainedUnpredictable;
        if (cand.unknownSideEffects)
            ++result.unknownSideEffects;
        // Evaluate the condition first: it is much cheaper than the
        // model, and forbidden-checks only care about satisfying
        // candidates.
        const bool satisfies = condHolds(cand, test.finalCond);
        if (stopAtFirst && !satisfies)
            return true;
        if (!info.coherent) {
            // The pre-filter already knows the internal axiom rejects
            // this candidate; only the first satisfying rejection needs
            // the actual cycle for diagnostics.
            if (satisfies && result.forbiddingAxiom.empty()) {
                Relation internal =
                    cand.poLoc() | cand.fr() | cand.co | cand.rf;
                result.forbiddingAxiom = "internal";
                if (auto cycle = internal.findCycle())
                    result.forbiddingCycle = *cycle;
            }
            return true;
        }
        const engine::CancelToken *token =
            governor ? governor->token() : nullptr;
        if (!folded) {
            folded.emplace(plan, cand);
            foldedCombo = info.comboIndex;
        } else if (foldedCombo != info.comboIndex) {
            folded->refold(cand);
            foldedCombo = info.comboIndex;
        }
        // The fast mode reorders checks and skips cycle extraction;
        // only a failure that would actually be reported (first
        // satisfying rejection) needs the program-order attributed run.
        const ModelResult model =
            satisfies && result.forbiddingAxiom.empty()
                ? folded->runAttributed(cand, token)
                : folded->runFast(cand, token);
        if (model.aborted) {
            // Token tripped between clauses: stop here. The candidate
            // is counted but unresolved; remember its flags so a range
            // check can roll it back and resume exactly at it.
            abortedPending = true;
            abortedCU = cand.constrainedUnpredictable ? 1 : 0;
            abortedUnknown = cand.unknownSideEffects ? 1 : 0;
            return false;
        }
        if (!model.consistent) {
            if (satisfies && result.forbiddingAxiom.empty()) {
                result.forbiddingAxiom = model.failedAxiom;
                if (model.cycle)
                    result.forbiddingCycle = *model.cycle;
            }
            return true;
        }
        ++result.consistent;
        if (satisfies) {
            ++result.witnesses;
            result.observable = true;
            if (captureWitness && !result.witness)
                result.witness = cand;  // deep copy: buffer is reused
            if (stopAtFirst)
                return false;
        }
        return true;
    }
};

/** Fold @p part into @p into, preserving enumeration-order "first"
 *  semantics for the forbidding diagnostic and the witness. */
void
mergeInto(CheckResult &into, CheckResult &&part)
{
    into.candidates += part.candidates;
    into.consistent += part.consistent;
    into.witnesses += part.witnesses;
    into.constrainedUnpredictable += part.constrainedUnpredictable;
    into.unknownSideEffects += part.unknownSideEffects;
    if (into.forbiddingAxiom.empty() && !part.forbiddingAxiom.empty()) {
        into.forbiddingAxiom = std::move(part.forbiddingAxiom);
        into.forbiddingCycle = std::move(part.forbiddingCycle);
    }
    if (!into.witness && part.witness)
        into.witness = std::move(*part.witness);
}

/** Serial staged check over an already-built enumerator. */
CheckResult
checkSerial(CandidateEnumerator &enumerator, const LitmusTest &test,
            bool stop_at_first, bool capture_witness,
            engine::Governor *governor, const catc::FoldPlan &plan)
{
    engine::crashContextSetStage("enumerate");
    if (governor)
        governor->noteStage("enumerate");
    StagedAccumulator acc{test, stop_at_first, capture_witness, governor,
                          plan};
    enumerator.forEachStaged(
        [&](CandidateExecution &cand,
            const CandidateEnumerator::StagedInfo &info) {
            return acc.consume(cand, info);
        },
        governor ? governor->token() : nullptr);
    acc.result.observable = acc.result.witnesses > 0;
    return std::move(acc.result);
}

/** Witness assignments per shard (checker.hh: shared with the range
 *  API, whose plans must address the same shards by the same index). */
constexpr std::uint64_t kShardTarget = kCheckShardTarget;

/**
 * Parallel staged check: plan shards in global enumeration order, run
 * them on the pool, merge in order.
 *
 * Determinism, including under stop_at_first: let w be the smallest
 * index of a shard that found a witness. Shards publish their index
 * into `cutoff` with a fetch-min when they find a witness, and only
 * shards *strictly above* the cutoff abort; since cutoff only ever
 * decreases down to w, every shard below w runs to completion. The
 * merge consumes shards 0..w (the w-th stopped at its witness) and
 * drops the rest — exactly the candidates the serial path visits.
 */
CheckResult
checkSharded(CandidateEnumerator &enumerator, const LitmusTest &test,
             bool stop_at_first, bool capture_witness,
             engine::ThreadPool &pool, engine::Governor *governor,
             const catc::FoldPlan &plan)
{
    engine::crashContextSetStage("plan");
    if (governor)
        governor->noteStage("plan");
    const std::vector<CandidateEnumerator::Shard> shards =
        enumerator.planShards(kShardTarget,
                              governor ? governor->token() : nullptr);
    if (shards.size() <= 1) {
        return checkSerial(enumerator, test, stop_at_first,
                           capture_witness, governor, plan);
    }

    struct ShardOutcome {
        CheckResult result;
        bool witnessed = false;  //!< stopped at a witness
        bool cancelled = false;  //!< aborted/skipped via the cutoff
    };
    // Outcome slots are allocated by the shard tasks themselves, not
    // eagerly: a CheckResult inlines a ~5 KB witness buffer, and a
    // large test plans 10^5+ shards, so a by-value vector would fault
    // in the better part of a gigabyte before any work starts — which
    // on a budget trip (zero shards run) dominated the wall clock. A
    // null slot after the drain means the shard was never submitted.
    std::vector<std::unique_ptr<ShardOutcome>> outcomes(shards.size());
    std::atomic<std::size_t> cutoff{shards.size()};

    auto fetchMinCutoff = [&cutoff](std::size_t value) {
        std::size_t seen = cutoff.load();
        while (value < seen &&
               !cutoff.compare_exchange_weak(seen, value)) {
        }
    };

    engine::crashContextSetStage("enumerate");
    if (governor)
        governor->noteStage("enumerate");
    std::vector<std::future<void>> futures;
    futures.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
        // A large test submits tens of thousands of shard tasks; once
        // the budget trips there is no point queueing the rest (their
        // startup poll would skip them anyway, but submission itself
        // is not free at this fan-out). Unsubmitted shards merge as
        // empty partial results.
        if (governor && governor->tripped())
            break;
        futures.push_back(pool.submit([&, i] {
            // Each task is the only writer of its slot, and the merge
            // only reads after the drain barrier below.
            outcomes[i] = std::make_unique<ShardOutcome>();
            ShardOutcome &out = *outcomes[i];
            if (stop_at_first && i > cutoff.load()) {
                out.cancelled = true;  // a lower shard already witnessed
                return;
            }
            StagedAccumulator acc{test, stop_at_first, capture_witness,
                                  governor, plan};
            const bool completed = enumerator.visitShard(
                shards[i],
                [&](CandidateExecution &cand,
                    const CandidateEnumerator::StagedInfo &info) {
                    if (stop_at_first && i > cutoff.load()) {
                        out.cancelled = true;
                        return false;
                    }
                    return acc.consume(cand, info);
                },
                governor ? governor->token() : nullptr);
            // A shard stopped by a tripped budget is a partial shard,
            // not a witnessing one: the distinction keeps a budget stop
            // from being misread as an Allowed verdict.
            if (!completed && !out.cancelled &&
                    !(governor && governor->tripped())) {
                out.witnessed = true;
                if (stop_at_first)
                    fetchMinCutoff(i);
            }
            out.result = std::move(acc.result);
        }));
    }
    for (std::future<void> &future : futures)
        future.get();
    engine::crashContextSetStage("merge");
    if (governor)
        governor->noteStage("merge");

    CheckResult merged;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        if (!outcomes[i])
            break;  // unsubmitted suffix: the budget tripped first
        ShardOutcome &out = *outcomes[i];
        rexAssert(!out.cancelled || i > 0,
                  "shard 0 cancelled without a predecessor witness");
        if (out.cancelled)
            break;  // everything at or after this index is post-witness
        const bool witnessed = out.witnessed;
        mergeInto(merged, std::move(out.result));
        if (stop_at_first && witnessed)
            break;
    }
    merged.observable = merged.witnesses > 0;
    return merged;
}

/** Outcome of running one contiguous slice of a shard plan. */
struct RangeRun {
    CheckResult result;
    bool witnessed = false;
    bool completed = false;
    std::uint64_t nextShard = 0;   //!< valid when neither of the above
    std::uint64_t nextOffset = 0;
};

/**
 * Run shards [begin, end) serially, entering the first at @p offset
 * candidates past its start. Range checks are always stop_at_first and
 * witness-less (the verdict-serving configuration — anything else
 * would make resumed pieces diverge from uninterrupted runs).
 */
RangeRun
runRangeSerial(CandidateEnumerator &enumerator,
               const std::vector<CandidateEnumerator::Shard> &shards,
               std::uint64_t begin, std::uint64_t end,
               std::uint64_t offset, const LitmusTest &test,
               engine::Governor *governor, const catc::FoldPlan &plan)
{
    RangeRun run;
    for (std::uint64_t i = begin; i < end; ++i) {
        const std::uint64_t startOff = i == begin ? offset : 0;
        if (governor && governor->tripped()) {
            run.nextShard = i;
            run.nextOffset = startOff;
            return run;
        }
        CandidateEnumerator::Shard shard = shards[i];
        rexAssert(startOff <= shard.end - shard.begin,
                  "continuation offset outside its shard");
        shard.begin += startOff;
        if (shard.begin == shard.end)
            continue;  // the cursor sat exactly on the shard boundary
        StagedAccumulator acc{test, /*stopAtFirst=*/true,
                              /*captureWitness=*/false, governor, plan};
        const bool completed = enumerator.visitShard(
            shard,
            [&](CandidateExecution &cand,
                const CandidateEnumerator::StagedInfo &info) {
                return acc.consume(cand, info);
            },
            governor ? governor->token() : nullptr);
        const bool witnessed = acc.result.witnesses > 0;
        if (!completed && !witnessed) {
            // The budget tripped inside the shard. Un-count an
            // admitted-but-unresolved candidate so the cursor points
            // at the first candidate the next piece must visit.
            acc.rollbackAborted();
            run.nextShard = i;
            run.nextOffset = startOff + acc.result.candidates;
            mergeInto(run.result, std::move(acc.result));
            return run;
        }
        mergeInto(run.result, std::move(acc.result));
        if (witnessed) {
            run.witnessed = true;
            return run;
        }
    }
    run.completed = true;
    run.nextShard = end;
    return run;
}

/**
 * Pool-parallel variant of runRangeSerial: the checkSharded() merge
 * discipline (in-order, witness fetch-min cutoff) extended with a
 * per-shard completion flag and resume cursor, so a budget trip yields
 * the longest fully-resolved prefix plus the exact cursor after it.
 *
 * The shard under the cursor runs on the calling thread before the
 * rest are submitted. A candidate ceiling is one count shared by every
 * shard; were the cursor shard to race the others for it, they could
 * spend all of it while the cursor shard is rolled back, and the piece
 * would hand back its own starting cursor. Running it first means a
 * piece always advances by min(ceiling, rest of the cursor shard)
 * candidates, or by at least one shard.
 */
RangeRun
runRangePooled(CandidateEnumerator &enumerator,
               const std::vector<CandidateEnumerator::Shard> &shards,
               std::uint64_t begin, std::uint64_t end,
               std::uint64_t offset, const LitmusTest &test,
               engine::ThreadPool &pool, engine::Governor *governor,
               const catc::FoldPlan &plan)
{
    const std::size_t count = static_cast<std::size_t>(end - begin);
    struct Slot {
        CheckResult result;
        bool witnessed = false;
        bool cancelled = false;
        bool completed = false;
        std::uint64_t nextOffset = 0;  //!< valid when partial
    };
    // Lazily allocated for the same reason as checkSharded's outcome
    // slots: a null slot after the drain means "never submitted".
    std::vector<std::unique_ptr<Slot>> slots(count);
    std::atomic<std::size_t> cutoff{count};
    auto fetchMinCutoff = [&cutoff](std::size_t value) {
        std::size_t seen = cutoff.load();
        while (value < seen &&
               !cutoff.compare_exchange_weak(seen, value)) {
        }
    };

    auto runSlot = [&](std::size_t i) {
        slots[i] = std::make_unique<Slot>();
        Slot &slot = *slots[i];
        if (i > cutoff.load()) {
            slot.cancelled = true;
            return;
        }
        const std::uint64_t startOff = i == 0 ? offset : 0;
        CandidateEnumerator::Shard shard = shards[begin + i];
        rexAssert(startOff <= shard.end - shard.begin,
                  "continuation offset outside its shard");
        shard.begin += startOff;
        if (shard.begin == shard.end) {
            slot.completed = true;
            return;
        }
        StagedAccumulator acc{test, /*stopAtFirst=*/true,
                              /*captureWitness=*/false, governor, plan};
        const bool completed = enumerator.visitShard(
            shard,
            [&](CandidateExecution &cand,
                const CandidateEnumerator::StagedInfo &info) {
                if (i > cutoff.load()) {
                    slot.cancelled = true;
                    return false;
                }
                return acc.consume(cand, info);
            },
            governor ? governor->token() : nullptr);
        slot.completed = completed;
        slot.witnessed = acc.result.witnesses > 0;
        if (slot.witnessed)
            fetchMinCutoff(i);
        if (!completed && !slot.witnessed && !slot.cancelled) {
            acc.rollbackAborted();
            slot.nextOffset = startOff + acc.result.candidates;
        }
        slot.result = std::move(acc.result);
    };

    runSlot(0);
    std::vector<std::future<void>> futures;
    futures.reserve(count - 1);
    for (std::size_t i = 1; i < count; ++i) {
        // Past a trip or a witness below i, the shard would only merge
        // as skipped; leave it unsubmitted.
        if ((governor && governor->tripped()) || i > cutoff.load())
            break;
        futures.push_back(pool.submit([&runSlot, i] { runSlot(i); }));
    }
    for (std::future<void> &future : futures)
        future.get();

    RangeRun run;
    std::size_t merged = 0;
    for (; merged < count; ++merged) {
        if (!slots[merged])
            break;  // unsubmitted suffix: the budget tripped first
        Slot &slot = *slots[merged];
        rexAssert(!slot.cancelled || merged > 0,
                  "first range shard cancelled without a witness below");
        if (slot.cancelled)
            break;
        const bool witnessed = slot.witnessed;
        const bool completed = slot.completed;
        const std::uint64_t nextOffset = slot.nextOffset;
        mergeInto(run.result, std::move(slot.result));
        if (witnessed) {
            run.witnessed = true;
            return run;
        }
        if (!completed) {
            run.nextShard = begin + merged;
            run.nextOffset = nextOffset;
            return run;
        }
    }
    if (merged == count) {
        run.completed = true;
        run.nextShard = end;
        return run;
    }
    // Unsubmitted or cancelled suffix without a witness at or below
    // it: resume at the start of the first unmerged shard (never the
    // cursor shard, which always runs and merges).
    run.nextShard = begin + merged;
    run.nextOffset = 0;
    return run;
}

} // namespace

CheckResult
checkTest(const LitmusTest &test, const ModelParams &params,
          bool stop_at_first, bool capture_witness,
          engine::ThreadPool *pool, engine::Governor *governor)
{
    // Compile (or fetch from the process-wide cache) the variant's
    // program and its fold plan once per check; every shard folds the
    // same plan. The shared_ptr outlives the shard tasks below.
    const std::shared_ptr<const catc::FoldPlan> plan =
        catc::planForCheck(params);
    engine::crashContextSetStage("traces");
    if (governor)
        governor->noteStage("traces");
    CandidateEnumerator enumerator(test,
                                   governor ? governor->token() : nullptr);
    CheckResult result;
    if (pool && pool->threadCount() > 1 &&
            !engine::ThreadPool::onWorkerThread()) {
        result = checkSharded(enumerator, test, stop_at_first,
                              capture_witness, *pool, governor, *plan);
    } else {
        result = checkSerial(enumerator, test, stop_at_first,
                             capture_witness, governor, *plan);
    }
    // A witness found under stop_at_first soundly settles Allowed even
    // when the budget tripped while other shards were still running;
    // everything else stopped by a trip is a partial (unsettled) result.
    if (governor && governor->tripped() &&
            !(stop_at_first && result.witnesses > 0)) {
        result.exhaustedAxis =
            engine::budgetAxisName(governor->trippedAxis());
    }
    return result;
}

ShardRangeOutcome
checkShardRange(const LitmusTest &test, const ModelParams &params,
                const ShardRangeSpec &spec, engine::ThreadPool *pool,
                engine::Governor *governor)
{
    ShardRangeOutcome out;
    const std::shared_ptr<const catc::FoldPlan> plan =
        catc::planForCheck(params);
    engine::crashContextSetStage("traces");
    if (governor)
        governor->noteStage("traces");
    CandidateEnumerator enumerator(test,
                                   governor ? governor->token() : nullptr);
    if (governor && governor->tripped()) {
        // Trace construction itself outran the budget: no plan exists,
        // so there is no cursor to hand back (out.planned stays false
        // and a caller holding an older cursor keeps it unchanged).
        out.result.exhaustedAxis =
            engine::budgetAxisName(governor->trippedAxis());
        return out;
    }
    engine::crashContextSetStage("plan");
    if (governor)
        governor->noteStage("plan");
    // Unlike checkSharded, the plan ignores the cancel token: the
    // continuation format addresses shards by index into the complete
    // deterministic plan, so a trip must never truncate it.
    const std::vector<CandidateEnumerator::Shard> shards =
        enumerator.planShards(spec.planTarget, nullptr);
    out.planned = true;
    out.planSize = shards.size();
    const std::uint64_t end =
        std::min<std::uint64_t>(spec.shardEnd, shards.size());
    const std::uint64_t begin =
        std::min<std::uint64_t>(spec.shardBegin, end);
    if (begin >= end) {
        out.completed = true;
        out.nextShard = end;
        return out;
    }

    engine::crashContextSetStage("enumerate");
    if (governor)
        governor->noteStage("enumerate");

    RangeRun total;
    if (pool && pool->threadCount() > 1 &&
            !engine::ThreadPool::onWorkerThread() && end - begin > 1) {
        total = runRangePooled(enumerator, shards, begin, end,
                               spec.inShardOffset, test, *pool, governor,
                               *plan);
    } else {
        total = runRangeSerial(enumerator, shards, begin, end,
                               spec.inShardOffset, test, governor, *plan);
    }

    engine::crashContextSetStage("merge");
    if (governor)
        governor->noteStage("merge");
    out.result = std::move(total.result);
    out.witnessed = total.witnessed;
    out.completed = total.completed;
    out.nextShard = total.nextShard;
    out.nextOffset = total.nextOffset;
    out.result.observable = out.result.witnesses > 0;
    if (!out.witnessed && !out.completed) {
        out.result.exhaustedAxis = governor
            ? engine::budgetAxisName(governor->trippedAxis())
            : engine::budgetAxisName(engine::BudgetAxis::Cancelled);
    }
    return out;
}

CheckResult
checkTestNaive(const LitmusTest &test, const ModelParams &params,
               bool stop_at_first, bool capture_witness)
{
    CheckResult result;
    CandidateEnumerator enumerator(test);
    enumerator.forEachNaive([&](CandidateExecution &cand) {
        ++result.candidates;
        if (cand.constrainedUnpredictable)
            ++result.constrainedUnpredictable;
        if (cand.unknownSideEffects)
            ++result.unknownSideEffects;
        bool satisfies = condHolds(cand, test.finalCond);
        if (stop_at_first && !satisfies)
            return true;
        ModelResult model = checkConsistent(cand, params);
        if (!model.consistent) {
            if (satisfies && result.forbiddingAxiom.empty()) {
                result.forbiddingAxiom = model.failedAxiom;
                if (model.cycle)
                    result.forbiddingCycle = *model.cycle;
            }
            return true;
        }
        ++result.consistent;
        if (satisfies) {
            ++result.witnesses;
            result.observable = true;
            if (capture_witness && !result.witness)
                result.witness = cand;
            if (stop_at_first)
                return false;
        }
        return true;
    });
    result.observable = result.witnesses > 0;
    return result;
}

} // namespace rex
