#include "axiomatic/model.hh"

#include "engine/governor.hh"

namespace rex {

namespace {

/**
 * All per-event-kind sets the skeleton needs, filled in ONE pass over
 * the events instead of one pass per accessor (each CandidateExecution
 * helper re-scans the event list; the skeleton needs over a dozen).
 * Definitions mirror the CandidateExecution accessors exactly.
 */
struct KindSets {
    EventSet reads, writes, acquires, acquirePcs, releases;
    EventSet dmbLd, dmbSt, dsb, isb;
    EventSet takeExceptions, translationFaults, erets, msr, takeInterrupts;

    explicit KindSets(const CandidateExecution &cand)
        : reads(cand.size()), writes(cand.size()), acquires(cand.size()),
          acquirePcs(cand.size()), releases(cand.size()),
          dmbLd(cand.size()), dmbSt(cand.size()), dsb(cand.size()),
          isb(cand.size()), takeExceptions(cand.size()),
          translationFaults(cand.size()), erets(cand.size()),
          msr(cand.size()), takeInterrupts(cand.size())
    {
        for (const Event &e : cand.events) {
            switch (e.kind) {
              case EventKind::ReadMem:
                reads.insert(e.id);
                if (e.flags.acquire)
                    acquires.insert(e.id);
                if (e.flags.acquirePc)
                    acquirePcs.insert(e.id);
                break;
              case EventKind::WriteMem:
                writes.insert(e.id);
                if (e.flags.release)
                    releases.insert(e.id);
                break;
              case EventKind::Barrier:
                switch (e.barrier) {
                  case BarrierKind::DmbLd:
                    dmbLd.insert(e.id);
                    break;
                  case BarrierKind::DmbSt:
                    dmbSt.insert(e.id);
                    break;
                  case BarrierKind::DmbSy:
                    dmbLd.insert(e.id);
                    dmbSt.insert(e.id);
                    break;
                  case BarrierKind::DsbLd:
                    dmbLd.insert(e.id);
                    dsb.insert(e.id);
                    break;
                  case BarrierKind::DsbSt:
                    dmbSt.insert(e.id);
                    dsb.insert(e.id);
                    break;
                  case BarrierKind::DsbSy:
                    dmbLd.insert(e.id);
                    dmbSt.insert(e.id);
                    dsb.insert(e.id);
                    break;
                  case BarrierKind::Isb:
                    isb.insert(e.id);
                    break;
                }
                break;
              case EventKind::TakeException:
                takeExceptions.insert(e.id);
                if (e.exceptionClass ==
                        ExceptionClass::DataAbortTranslation)
                    translationFaults.insert(e.id);
                break;
              case EventKind::ExceptionReturn:
                erets.insert(e.id);
                break;
              case EventKind::WriteSysreg:
                msr.insert(e.id);
                break;
              case EventKind::TakeInterrupt:
                takeInterrupts.insert(e.id);
                break;
              default:
                break;
            }
        }
    }
};

} // namespace

SkeletonRelations
computeSkeleton(const CandidateExecution &cand, const ModelParams &params)
{
    const std::size_t n = cand.size();
    SkeletonRelations s;

    const KindSets k(cand);
    const EventSet mem = k.reads | k.writes;

    // poLoc and internalPairs, fused into one pair sweep (their
    // CandidateExecution accessors each materialize an intermediate
    // n x n relation).
    s.poLoc.reset(n);
    s.internalPairs.reset(n);
    for (const Event &a : cand.events) {
        for (const Event &b : cand.events) {
            if (a.tid != kInitialThread && b.tid == a.tid && b.id != a.id)
                s.internalPairs.add(a.id, b.id);
            if (a.isMemory() && b.isMemory() && a.loc == b.loc &&
                    cand.po.contains(a.id, b.id))
                s.poLoc.add(a.id, b.id);
        }
    }
    s.addrData = cand.addr | cand.data;

    // (* might-be speculatively executed *)
    // [S]; r and r; [S] are domain/range restrictions: computed as such
    // instead of materializing identity relations and seq-composing,
    // which costs a row scan per pair instead of a word-wise AND.
    Relation speculative = cand.ctrl | cand.addr.seq(cand.po);
    if (params.seaR)
        speculative |= cand.po.restrictDomain(k.reads);
    if (params.seaW)
        speculative |= cand.po.restrictDomain(k.writes);

    // (* context-sync-events *)
    EventSet cse = k.isb;
    if (params.entryIsCse())
        cse |= k.takeExceptions;
    if (params.returnIsCse())
        cse |= k.erets;
    // Asynchronous exception entry is exception entry too: when entry is
    // context-synchronising, TakeInterrupt events are CSEs as well.
    if (params.entryIsCse())
        cse |= k.takeInterrupts;

    // (* dependency-ordered-before *), minus the rfi tail.
    s.staticOb = s.addrData;
    s.staticOb |= speculative.restrictRange(k.writes);
    s.staticOb |= speculative.restrictRange(k.isb);

    // (* atomic-ordered-before *): cand.rmw is already skeleton; keep
    // the endpoint sets of the rfi tail ([range(rmw)]; rfi; [A|Q]).
    s.staticOb |= cand.rmw;
    s.rmwRange = cand.rmw.range();
    s.acq = k.acquires | k.acquirePcs;

    // (* barrier-ordered-before *)
    s.staticOb |= cand.po.restricted(k.reads, k.dmbLd);
    s.staticOb |= cand.po.restricted(k.writes, k.dmbSt);
    s.staticOb |= cand.po.restricted(k.dmbSt, k.writes);
    s.staticOb |= cand.po.restricted(k.dmbLd, mem);
    s.staticOb |= cand.po.restricted(k.releases, k.acquires);
    s.staticOb |= cand.po.restricted(s.acq, mem);
    s.staticOb |= cand.po.restricted(mem, k.releases);
    s.staticOb |= cand.po.restrictDomain(k.dsb);

    // (* contextually-ordered-before *)
    s.staticOb |= speculative.restrictRange(k.msr | cse);
    s.staticOb |= cand.po.restricted(k.msr, cse);
    s.staticOb |= cand.po.restrictDomain(cse);

    // (* async-ordered-before *)
    s.staticOb |= speculative.restrictRange(k.takeInterrupts);
    s.staticOb |= cand.po.restrictDomain(k.takeInterrupts);

    // FEAT_ETS2: a barrier before translation faults (§3.3).
    if (params.featEts2)
        s.staticOb |= cand.po.restrictRange(k.translationFaults);

    // §7.5 GIC draft, minus the interrupt witness edge: DSBs order GIC
    // effects (iio-after their register access) with program order.
    s.gic = params.gicExtension;
    if (params.gicExtension) {
        s.staticOb |= cand.iio.inverse().seq(cand.po).restrictRange(k.dsb);
        s.staticOb |= cand.po.restrictDomain(k.dsb).seq(cand.iio);
    }

    return s;
}

ModelResult
checkConsistent(const CandidateExecution &cand, const ModelParams &,
                const SkeletonRelations &skel, bool internal_prechecked,
                const engine::CancelToken *cancel)
{
    ModelResult result;

    const Relation fr = cand.rf.inverse().seq(cand.co);

    // Internal visibility requirement: SC per location.
    if (!internal_prechecked) {
        Relation internal = skel.poLoc | fr;
        internal |= cand.co;
        internal |= cand.rf;
        if (auto cycle = internal.findCycle()) {
            result.consistent = false;
            result.failedAxiom = "internal";
            result.cycle = std::move(cycle);
            return result;
        }
    }

    // Cancellation poll between the staged clauses: the ob transitive
    // closure below is the expensive step, so a tripped budget stops
    // before paying for it.
    if (cancel && cancel->cancelled()) {
        result.aborted = true;
        return result;
    }

    // External visibility requirement: rebuild only the
    // witness-dependent ob clauses on top of the skeleton union.
    const Relation rfi = cand.rf & skel.internalPairs;
    Relation union_rel = skel.staticOb | fr;
    union_rel |= cand.rf - skel.internalPairs;  // rfe
    union_rel |= cand.co;
    union_rel |= skel.addrData.seq(rfi);
    union_rel |= rfi.restricted(skel.rmwRange, skel.acq);
    if (skel.gic)
        union_rel |= cand.interruptWitness;
    if (!union_rel.transitiveClosure().irreflexive()) {
        result.consistent = false;
        result.failedAxiom = "external";
        // Report a cycle of the (pre-closure) union for readability.
        result.cycle = union_rel.findCycle();
        return result;
    }

    // Atomic: no intervening external write between an exclusive pair.
    Relation atomic_violation = cand.rmw & (fr - skel.internalPairs)
                                               .seq(cand.co - skel.internalPairs);
    if (!atomic_violation.empty()) {
        result.consistent = false;
        result.failedAxiom = "atomic";
        return result;
    }

    return result;
}

} // namespace rex
