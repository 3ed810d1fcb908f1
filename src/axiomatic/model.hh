/**
 * @file
 * ModelResult, the per-candidate outcome every Figure 9 evaluator
 * reports, and the staged native transcription of Figure 9.
 *
 * Figure 9 exists in one authoritative form, models/aarch64-exceptions.cat:
 * the checker runs it compiled (catc), and the cat interpreter
 * (cat::CatModel) is the independent reference every test compares the
 * compiled program with. computeSkeleton() and the staged
 * checkConsistent() below are kept only for e2ebench's traced hammer
 * probe, whose `axiomatic.staged` span times them; they go once that
 * probe moves to the compiled program. Nothing else calls them.
 */

#ifndef REX_AXIOMATIC_MODEL_HH
#define REX_AXIOMATIC_MODEL_HH

#include <optional>
#include <string>
#include <vector>

#include "axiomatic/params.hh"
#include "events/candidate.hh"

namespace rex {

namespace engine { class CancelToken; }

/** Outcome of checking one candidate against the model. */
struct ModelResult {
    /** True when every axiom holds. */
    bool consistent = true;

    /** Name of the first failed axiom ("internal", "external",
     *  "atomic"), empty when consistent. */
    std::string failedAxiom;

    /** The cycle witnessing an acyclicity/irreflexivity failure. */
    std::optional<std::vector<EventId>> cycle;

    /** True when a CancelToken stopped the check between clauses: the
     *  other fields say nothing about this candidate. */
    bool aborted = false;
};

/**
 * The witness-independent slice of the model's relations.
 *
 * Every relation here depends only on the thread-trace skeleton of a
 * candidate (events, po, iio, addr/data/ctrl, rmw, event kinds) — not
 * on the existential witnesses rf, co, or interrupt. Within one trace
 * combination the enumerator varies only the witnesses, so this slice
 * is computed once per combination and reused for every rf × co ×
 * interrupt assignment (see "Staged enumeration" in DESIGN.md).
 */
struct SkeletonRelations {
    /** po restricted to same-location accesses (internal axiom). */
    Relation poLoc;

    /** Same-thread pairs: splits rf/fr/co into internal/external. */
    Relation internalPairs;

    /** addr | data — source of dob's rfi tail. */
    Relation addrData;

    /** range(rmw) — domain of aob's rfi tail (`[range(rmw)]; rfi`). */
    EventSet rmwRange;

    /** A | Q — range of aob's rfi tail (`rfi; [A|Q]`). */
    EventSet acq;

    /** Union of every witness-independent ob clause (incl. rmw). */
    Relation staticOb;

    /** params.gicExtension: include the interrupt witness in ob. */
    bool gic = false;
};

/** Compute the witness-independent relations for @p candidate. */
SkeletonRelations computeSkeleton(const CandidateExecution &candidate,
                                  const ModelParams &params);

/**
 * Check the axioms reusing the precomputed witness-independent slice:
 * only obs, the rfi tails of dob/aob, and gicob's witness edge are
 * rebuilt before the ob closure.
 * @param internal_prechecked skip the internal (SC-per-location) axiom;
 *        the caller has already established it, e.g. via the
 *        enumerator's coherence pre-filter.
 * @param cancel when non-null, polled between the staged clauses (the
 *        ob closure is the expensive step); a tripped token returns a
 *        result with aborted = true and says nothing about the
 *        candidate.
 */
ModelResult checkConsistent(const CandidateExecution &candidate,
                            const ModelParams &params,
                            const SkeletonRelations &skeleton,
                            bool internal_prechecked = false,
                            const engine::CancelToken *cancel = nullptr);

} // namespace rex

#endif // REX_AXIOMATIC_MODEL_HH
