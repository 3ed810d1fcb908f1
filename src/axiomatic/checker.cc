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
 * One accumulator per (serial walk | shard); the compiled program's
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
     * Un-count the unresolved candidate. Only the prefix reading calls
     * this (its resume cursor must point at that candidate so the next
     * piece re-visits it); the whole-test reading keeps the admitted
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

using Cursor = CandidateEnumerator::Cursor;
using Shard = CandidateEnumerator::Shard;

/** Record @p stage for crash attribution and the budget report. */
void
noteStage(engine::Governor *governor, const char *stage)
{
    engine::crashContextSetStage(stage);
    if (governor)
        governor->noteStage(stage);
}

/** Can a check shard onto @p pool? Not from one of its own workers:
 *  waiting there on the pool's futures would deadlock. */
bool
usable(const engine::ThreadPool *pool)
{
    return pool && pool->threadCount() > 1 &&
           !engine::ThreadPool::onWorkerThread();
}

/** One check's fixed inputs, shared by both halves of the walk. */
struct Walk {
    const LitmusTest &test;
    /** Compiled model's shared fold plan; alive for the whole check. */
    const catc::FoldPlan &plan;
    const CandidateEnumerator &enumerator;
    engine::Governor *governor;  //!< may be null (unlimited)
    bool stopAtFirst;
    bool captureWitness;
    /**
     * Which reading the walk produces. The whole-test reading
     * (checkTest) keeps every admitted candidate and merges every shard
     * that ran, so a witness found after a trip still counts. The
     * prefix reading (range pieces, which can mint a token) stops at
     * the first candidate whose model run did not finish, un-counts it,
     * and names it as the resume cursor.
     */
    bool prefix;

    StagedAccumulator
    accumulator() const
    {
        return {test, stopAtFirst, captureWitness, governor, plan};
    }

    const engine::CancelToken *
    token() const
    {
        return governor ? governor->token() : nullptr;
    }
};

/** What a walk produced. witnessed, completed and next describe the
 *  prefix reading; the whole-test reading only needs the counts. */
struct WalkOutcome {
    CheckResult result;
    bool witnessed = false;  //!< stopped at a witness (stop_at_first)
    bool completed = false;  //!< every candidate before the end resolved
    Cursor next{};           //!< first unresolved candidate otherwise
};

/**
 * The serial half: one forEachStaged pass from @p start with one
 * accumulator, stopping before shard @p end. It never builds a plan.
 *
 * The prefix reading does not hand the cancel token to the enumerator:
 * every stop is then the accumulator's, at a visited candidate, so the
 * cursor is that candidate's own position.
 */
WalkOutcome
walkSerial(const Walk &walk, Cursor start, std::uint64_t end)
{
    noteStage(walk.governor, "enumerate");
    StagedAccumulator acc = walk.accumulator();
    WalkOutcome out;
    bool stopped = false;
    walk.enumerator.forEachStaged(
        [&](CandidateExecution &cand,
            const CandidateEnumerator::StagedInfo &info) {
            if (info.shard >= end)
                return false;
            out.next = {info.shard, info.offset};
            stopped = !acc.consume(cand, info);
            return !stopped;
        },
        walk.prefix ? nullptr : walk.token(), start);
    out.witnessed = walk.stopAtFirst && acc.result.witnesses > 0;
    out.completed = !stopped;
    if (walk.prefix && !out.witnessed && !out.completed)
        acc.rollbackAborted();
    out.result = std::move(acc.result);
    return out;
}

/**
 * The pooled half: run plan shards [start.shard, end) as visitShard
 * tasks, entering the first at start.offset, and merge them in order.
 *
 * Determinism, including under stop_at_first: let w be the smallest
 * index of a shard that found a witness. Shards publish their index
 * into `cutoff` with a fetch-min when they find a witness, and only
 * shards *strictly above* the cutoff abort; since cutoff only ever
 * decreases down to w, every shard below w runs to completion. The
 * merge consumes shards up to w (the w-th stopped at its witness) and
 * drops the rest — exactly the candidates the serial walk visits.
 *
 * A candidate ceiling is a cut of the plan, not a race: the walk keeps
 * the first ceiling positions from @p start, trims the shard that holds
 * the cut and submits nothing past it, so its shards admit exactly the
 * candidates the serial walk admits. No admit() then reaches the
 * ceiling; when the cut fell short of the plan and no witness settled
 * the walk, the Candidates axis is latched after the merge instead.
 *
 * For the prefix reading the cursor shard runs on the calling thread
 * before the rest are submitted, so a piece that a deadline or memory
 * trip stops still advances through its cursor shard first.
 */
WalkOutcome
walkPooled(const Walk &walk, engine::ThreadPool &pool,
           const std::vector<Shard> &shards, Cursor start,
           std::uint64_t end)
{
    noteStage(walk.governor, "enumerate");
    // The first position past the ceiling, or {end, 0} when the
    // ceiling (if any) covers every position from start. A walk has
    // its governor to itself, so the whole ceiling is left.
    Cursor cut{end, 0};
    if (walk.governor && walk.governor->budget().maxCandidates != 0) {
        std::uint64_t left = walk.governor->budget().maxCandidates;
        for (std::uint64_t s = start.shard; s < end; ++s) {
            const std::uint64_t from = s == start.shard ? start.offset : 0;
            const std::uint64_t size = shards[s].end - shards[s].begin;
            if (left < size - from) {
                cut = {s, from + left};
                break;
            }
            left -= size - from;
        }
    }
    const bool cutShort = cut.shard < end;
    const std::size_t count = static_cast<std::size_t>(
        cut.shard - start.shard + (cut.offset > 0 ? 1 : 0));
    struct Slot {
        CheckResult result;
        bool witnessed = false;  //!< stopped at a witness
        bool cancelled = false;  //!< aborted/skipped via the cutoff
        bool completed = false;  //!< visited every candidate
        std::uint64_t nextOffset = 0;  //!< prefix cursor when partial
    };
    // Slots are allocated by the shard tasks themselves, not eagerly: a
    // CheckResult inlines a ~5 KB witness buffer, and a large test
    // plans 10^5+ shards, so a by-value vector would fault in the
    // better part of a gigabyte before any work starts — which on a
    // budget trip (zero shards run) dominated the wall clock. A null
    // slot after the drain means the shard was never submitted.
    std::vector<std::unique_ptr<Slot>> slots(count);
    std::atomic<std::size_t> cutoff{count};
    auto cutOff = [&](std::size_t i) {
        return walk.stopAtFirst && i > cutoff.load();
    };

    auto runSlot = [&](std::size_t i) {
        // Each task is the only writer of its slot, and the merge only
        // reads after the drain barrier below.
        slots[i] = std::make_unique<Slot>();
        Slot &slot = *slots[i];
        if (cutOff(i)) {
            slot.cancelled = true;  // a lower shard already witnessed
            return;
        }
        Shard shard = shards[start.shard + i];
        const bool trimmed = start.shard + i == cut.shard;
        if (trimmed)
            shard.end = shard.begin + cut.offset;
        const std::uint64_t skip = i == 0 ? start.offset : 0;
        shard.begin += skip;
        StagedAccumulator acc = walk.accumulator();
        // A trimmed shard that reached the cut is partial: the prefix
        // reading resumes at the cut.
        slot.completed = walk.enumerator.visitShard(
            shard,
            [&](CandidateExecution &cand,
                const CandidateEnumerator::StagedInfo &info) {
                if (cutOff(i)) {
                    slot.cancelled = true;
                    return false;
                }
                return acc.consume(cand, info);
            },
            walk.token()) && !trimmed;
        slot.witnessed = walk.stopAtFirst && acc.result.witnesses > 0;
        if (slot.witnessed) {
            std::size_t seen = cutoff.load();
            while (i < seen && !cutoff.compare_exchange_weak(seen, i)) {
            }
        }
        if (walk.prefix && !slot.completed && !slot.witnessed &&
                !slot.cancelled) {
            acc.rollbackAborted();
            slot.nextOffset = skip + acc.result.candidates;
        }
        slot.result = std::move(acc.result);
    };

    std::size_t first = 0;
    if (walk.prefix && count > 0)
        runSlot(first++);
    std::vector<std::future<void>> futures;
    futures.reserve(count - first);
    for (std::size_t i = first; i < count; ++i) {
        // A large test submits tens of thousands of shard tasks; past a
        // trip or a witness below i a shard would only merge as
        // skipped, so leave the rest unsubmitted.
        if ((walk.governor && walk.governor->tripped()) || cutOff(i))
            break;
        futures.push_back(pool.submit([&runSlot, i] { runSlot(i); }));
    }
    for (std::future<void> &future : futures)
        future.get();
    noteStage(walk.governor, "merge");

    WalkOutcome out;
    std::size_t merged = 0;
    std::uint64_t nextOffset = 0;
    for (; merged < count; ++merged) {
        if (!slots[merged] || slots[merged]->cancelled)
            break;  // unsubmitted (budget) or post-witness suffix
        Slot &slot = *slots[merged];
        mergeInto(out.result, std::move(slot.result));
        if (slot.witnessed) {
            out.witnessed = true;
            return out;
        }
        if (walk.prefix && !slot.completed) {
            nextOffset = slot.nextOffset;
            break;
        }
    }
    out.completed = merged == count && !cutShort;
    // An unsubmitted or cancelled suffix without a witness at or below
    // it resumes at the start of its first shard.
    out.next = {start.shard + merged, nextOffset};
    if (cutShort)
        walk.governor->trip(engine::BudgetAxis::Candidates);
    return out;
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
    noteStage(governor, "traces");
    const CandidateEnumerator enumerator(
        test, governor ? governor->token() : nullptr);
    const Walk walk{test,          *plan,           enumerator, governor,
                    stop_at_first, capture_witness, /*prefix=*/false};
    WalkOutcome out;
    std::vector<Shard> shards;
    if (usable(pool)) {
        noteStage(governor, "plan");
        shards = enumerator.planShards(walk.token());
    }
    if (shards.size() > 1)
        out = walkPooled(walk, *pool, shards, {}, shards.size());
    else
        out = walkSerial(walk, {}, ~std::uint64_t(0));
    CheckResult result = std::move(out.result);
    result.observable = result.witnesses > 0;
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
    noteStage(governor, "traces");
    const CandidateEnumerator enumerator(
        test, governor ? governor->token() : nullptr);
    if (governor && governor->tripped()) {
        // Trace construction itself outran the budget: there is no
        // cursor to hand back (out.planned stays false and a caller
        // holding an older cursor keeps it unchanged).
        out.result.exhaustedAxis =
            engine::budgetAxisName(governor->trippedAxis());
        return out;
    }
    out.planned = true;
    const Walk walk{test,   *plan,  enumerator,      governor,
                    /*stopAtFirst=*/true, /*captureWitness=*/false,
                    /*prefix=*/true};
    const Cursor start{spec.shardBegin, spec.inShardOffset};

    // The plan ignores the cancel token: its size goes into tokens and
    // its shards are what cursors index, so a trip must never truncate
    // it. Only the pooled walk and a token's cursor check need it.
    std::vector<Shard> shards;
    if (usable(pool) || spec.issuedPlanSize) {
        noteStage(governor, "plan");
        shards = enumerator.planShards();
        out.planSize = shards.size();
        if (spec.issuedPlanSize &&
                (*spec.issuedPlanSize != shards.size() ||
                 start.shard >= shards.size() ||
                 start.offset >= shards[start.shard].end -
                                     shards[start.shard].begin)) {
            out.cursorRefused = true;
            return out;
        }
    }
    const std::uint64_t end =
        shards.empty() ? spec.shardEnd
                       : std::min<std::uint64_t>(spec.shardEnd,
                                                 shards.size());
    WalkOutcome run;
    if (start.shard >= end)
        run.completed = true;
    else if (usable(pool) && end - start.shard > 1)
        run = walkPooled(walk, *pool, shards, start, end);
    else
        run = walkSerial(walk, start, end);

    out.result = std::move(run.result);
    out.completed = run.completed;
    out.result.observable = out.result.witnesses > 0;
    if (!run.witnessed && !run.completed) {
        out.nextShard = run.next.shard;
        out.nextOffset = run.next.offset;
        if (shards.empty())
            out.planSize = enumerator.planShards().size();  // for the token
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
