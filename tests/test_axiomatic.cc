/**
 * @file
 * Unit tests for the axiomatic engine: parameter variants, candidate
 * enumeration (rf/co/interrupt witnesses, value-domain fixpoint), the
 * model's derived relations on known candidates, and checker details
 * (witness and cycle reporting). The model here is the shipped
 * aarch64-exceptions.cat as the cat interpreter evaluates it.
 */

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "base/logging.hh"
#include "cat/catmodel.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"

namespace rex {
namespace {

TEST(Params, VariantNamesRoundTrip)
{
    for (const char *name : {"base", "ExS", "SEA_R", "SEA_W", "SEA_RW",
                             "ExS_EIS0", "ExS_EOS0", "noETS2"}) {
        EXPECT_EQ(ModelParams::byName(name).name(), name);
    }
    EXPECT_THROW(ModelParams::byName("nope"), FatalError);
}

TEST(Params, CseGates)
{
    EXPECT_TRUE(ModelParams::base().entryIsCse());
    EXPECT_TRUE(ModelParams::base().returnIsCse());
    EXPECT_FALSE(ModelParams::exs().entryIsCse());
    EXPECT_FALSE(ModelParams::exs().returnIsCse());
    EXPECT_FALSE(ModelParams::byName("ExS_EIS0").entryIsCse());
    EXPECT_TRUE(ModelParams::byName("ExS_EIS0").returnIsCse());
}

TEST(Enumeration, SbHasExactCandidateCount)
{
    // SB+pos: each thread = 1 store + 1 load. Loads fork over {0,1};
    // rf choice is forced by the value; one write per location so co is
    // unique. 2 traces/thread -> 4 candidates.
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    CandidateEnumerator enumerator(test);
    EXPECT_EQ(enumerator.count(), 4u);
}

TEST(Enumeration, ValueDomainFixpointPicksUpStores)
{
    const LitmusTest &test = TestRegistry::instance().get("MP+pos");
    CandidateEnumerator enumerator(test);
    const auto &domain = enumerator.domain();
    ASSERT_EQ(domain.locValues.size(), 2u);
    EXPECT_EQ(domain.locValues[0], (std::vector<std::uint64_t>{0, 1}));
    EXPECT_EQ(domain.locValues[1], (std::vector<std::uint64_t>{0, 1}));
}

TEST(Enumeration, CoEnumeratesPermutations)
{
    // Two writes to x from different threads: co has 2 orders; the
    // final memory value distinguishes them.
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x; 1:X1=x; 0:X0=1; 1:X0=2\n"
        "thread 0:\n"
        "    STR X0,[X1]\n"
        "thread 1:\n"
        "    STR X0,[X1]\n"
        "allowed: *x=1\n");
    CandidateEnumerator enumerator(test);
    std::set<std::uint64_t> finals;
    enumerator.forEach([&](CandidateExecution &cand) {
        finals.insert(cand.finalMemValue(0));
        return true;
    });
    EXPECT_EQ(finals, (std::set<std::uint64_t>{1, 2}));
}

TEST(Enumeration, InterruptWitnessRequiresMatchingGenerate)
{
    // A thread that takes an SGI but whose test generates none for it
    // yields only the not-taken executions.
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 1:X1=x; 0:PSTATE.EL=1\n"
        "thread 0:\n"
        "    MOV X2,#2\n"          // INTID bits zero, target list empty
        "    MSR ICC_SGI1R_EL1,X2\n"
        "thread 1:\n"
        "    NOP\n"
        "handler 1:\n"
        "    MOV X3,#1\n"
        "    ERET\n"
        "allowed: 1:X3=1\n");
    CheckResult result = checkTest(test, ModelParams::base());
    // Target list 0b10 targets thread 1... bit 1 => thread 1. Adjust:
    // value 2 = target list {1}: the witness exists, so it IS takeable.
    EXPECT_TRUE(result.observable);

    // Now send to thread 0 only (which has no handler): thread 1 can
    // never take it.
    LitmusTest test2 = parseLitmus(
        "name: t2\n"
        "init: *x=0; 1:X1=x; 0:PSTATE.EL=1\n"
        "thread 0:\n"
        "    MOV X2,#1\n"          // target list {0} = the sender itself
        "    MSR ICC_SGI1R_EL1,X2\n"
        "thread 1:\n"
        "    NOP\n"
        "handler 1:\n"
        "    MOV X3,#1\n"
        "    ERET\n"
        "allowed: 1:X3=1\n");
    CheckResult result2 = checkTest(test2, ModelParams::base());
    EXPECT_FALSE(result2.observable);
}

/** The shipped model evaluated on @p cand under @p params: its let
 *  bindings are the model's derived relations. */
struct ModelBindings {
    ModelBindings(const CandidateExecution &cand, const ModelParams &params)
        : n(cand.size()), eval(cand, cat::flagsFor(params), {})
    {
        eval.evaluateFile(cat::CatModel::shipped().file());
    }

    const Relation &rel(const char *name) const
    {
        return eval.binding(name).asRel(n);
    }

    const EventSet &set(const char *name) const
    {
        return eval.binding(name).asSet(n);
    }

    std::size_t n;
    cat::Evaluator eval;
};

/** The interpreter's verdict on @p cand under @p params. */
ModelResult
check(const CandidateExecution &cand, const ModelParams &params)
{
    return cat::CatModel::shipped().check(cand, params);
}

TEST(Model, RelationsOnMpWithBarrier)
{
    const LitmusTest &test = TestRegistry::instance().get("MP+dmb.sys");
    CandidateEnumerator enumerator(test);
    bool found = false;
    enumerator.forEach([&](CandidateExecution &cand) {
        // Find the candidate with the forbidden reads (1, 0).
        if (!condHolds(cand, test.finalCond))
            return true;
        found = true;
        const ModelBindings rels(cand, ModelParams::base());
        // bob must order both barrier sides: W x -> DMB -> W y and
        // R y -> DMB -> R x.
        EXPECT_GT(rels.rel("bob").pairCount(), 0u);
        EXPECT_FALSE(rels.rel("ob").irreflexive());
        return false;
    });
    EXPECT_TRUE(found);
}

TEST(Model, SpeculativeGrowsUnderSeaVariants)
{
    const LitmusTest &test = TestRegistry::instance().get("LB+pos");
    CandidateEnumerator enumerator(test);
    enumerator.forEach([&](CandidateExecution &cand) {
        const ModelBindings base(cand, ModelParams::base());
        const ModelBindings sea_r(cand, ModelParams::seaReads());
        // [R]; po adds pairs beyond ctrl | addr; po.
        EXPECT_GT(sea_r.rel("speculative").pairCount(),
                  base.rel("speculative").pairCount());
        return false;
    });
}

TEST(Model, CseSetRespectsExS)
{
    const LitmusTest &test =
        TestRegistry::instance().get("SB+dmb.sy+eret");
    CandidateEnumerator enumerator(test);
    enumerator.forEach([&](CandidateExecution &cand) {
        const ModelBindings base(cand, ModelParams::base());
        const ModelBindings exs(cand, ModelParams::exs());
        EXPECT_EQ(base.set("CSE").count(),
                  cand.takeExceptions().count() + cand.erets().count() +
                      cand.isb().count() + cand.takeInterrupts().count());
        EXPECT_EQ(exs.set("CSE").count(), cand.isb().count());
        return false;
    });
}

TEST(Checker, ConstrainedUnpredictableCounted)
{
    LitmusTest test = parseLitmus(
        "name: cu\n"
        "init: *x=0; 0:X1=x; 0:X2=4096; 0:PSTATE.EL=1\n"
        "thread 0:\n"
        "    MSR VBAR_EL1,X2\n"
        "    SVC #0\n"
        "handler 0:\n"
        "    MOV X5,#1\n"
        "allowed: 0:X5=1\n");
    CheckResult result = checkTest(test, ModelParams::base());
    EXPECT_GT(result.constrainedUnpredictable, 0u);

    const LitmusTest &clean =
        TestRegistry::instance().get("SB+dmb.sy+eret");
    EXPECT_EQ(checkTest(clean, ModelParams::base())
                  .constrainedUnpredictable, 0u);
}

TEST(Checker, WitnessReportedForAllowed)
{
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    CheckResult result = checkTest(test, ModelParams::base());
    EXPECT_TRUE(result.observable);
    ASSERT_TRUE(result.witness.has_value());
    EXPECT_TRUE(condHolds(*result.witness, test.finalCond));
    EXPECT_GT(result.candidates, 0u);
    EXPECT_GT(result.consistent, 0u);
    EXPECT_GT(result.witnesses, 0u);
}

TEST(Checker, ForbiddenHasNoWitnessButConsistentCandidates)
{
    const LitmusTest &test = TestRegistry::instance().get("MP+dmb.sys");
    CheckResult result = checkTest(test, ModelParams::base());
    EXPECT_FALSE(result.observable);
    EXPECT_FALSE(result.witness.has_value());
    EXPECT_EQ(result.witnesses, 0u);
    EXPECT_GT(result.consistent, 0u);
}

TEST(Checker, CycleReportedOnExternalViolation)
{
    const LitmusTest &test = TestRegistry::instance().get("MP+dmb.sys");
    CandidateEnumerator enumerator(test);
    bool saw_external = false;
    enumerator.forEach([&](CandidateExecution &cand) {
        if (!condHolds(cand, test.finalCond))
            return true;
        ModelResult model = check(cand, ModelParams::base());
        if (model.failedAxiom == "external") {
            saw_external = true;
            EXPECT_TRUE(model.cycle.has_value());
            if (model.cycle) {
                EXPECT_GE(model.cycle->size(), 2u);
            }
        }
        return true;
    });
    EXPECT_TRUE(saw_external);
}

TEST(Checker, InternalAxiomCatchesCoherenceViolations)
{
    const LitmusTest &test = TestRegistry::instance().get("CoRR");
    CandidateEnumerator enumerator(test);
    bool saw_internal = false;
    enumerator.forEach([&](CandidateExecution &cand) {
        if (!condHolds(cand, test.finalCond))
            return true;
        ModelResult model = check(cand, ModelParams::base());
        EXPECT_FALSE(model.consistent);
        if (model.failedAxiom == "internal")
            saw_internal = true;
        return true;
    });
    EXPECT_TRUE(saw_internal);
}

TEST(Checker, AtomicAxiomFiresOnBothSucceeding)
{
    const LitmusTest &test = TestRegistry::instance().get("ATOM-2+2");
    CandidateEnumerator enumerator(test);
    bool saw_atomic = false;
    enumerator.forEach([&](CandidateExecution &cand) {
        if (!condHolds(cand, test.finalCond))
            return true;
        ModelResult model = check(cand, ModelParams::base());
        if (model.failedAxiom == "atomic")
            saw_atomic = true;
        return true;
    });
    EXPECT_TRUE(saw_atomic);
}

// ---------------------------------------------------------------------
// Monotonicity properties: SEA variants only *add* ordering edges, so a
// candidate consistent under a SEA variant is consistent under base;
// disabling context synchronisation (ExS) only removes edges, so a
// candidate consistent under base is consistent under ExS. Swept over
// every test in the library.
// ---------------------------------------------------------------------

class ModelMonotonicity
    : public ::testing::TestWithParam<const LitmusTest *>
{};

TEST_P(ModelMonotonicity, SeaStrengthensAndExSWeakens)
{
    const LitmusTest &test = *GetParam();
    CandidateEnumerator enumerator(test);
    std::size_t checked = 0;
    enumerator.forEach([&](CandidateExecution &cand) {
        bool base = check(cand, ModelParams::base()).consistent;
        bool sea_r = check(cand, ModelParams::seaReads()).consistent;
        bool sea_w = check(cand, ModelParams::seaWrites()).consistent;
        bool sea_rw = check(cand, ModelParams::seaBoth()).consistent;
        bool exs = check(cand, ModelParams::exs()).consistent;

        // SEA_RW ⊆ SEA_R ⊆ base, SEA_RW ⊆ SEA_W ⊆ base, base ⊆ ExS.
        EXPECT_LE(sea_r, base);
        EXPECT_LE(sea_w, base);
        EXPECT_LE(sea_rw, sea_r);
        EXPECT_LE(sea_rw, sea_w);
        EXPECT_LE(base, exs);
        return ++checked < 1500;
    });
    EXPECT_GT(checked, 0u);
}

std::string
monotonicityName(const ::testing::TestParamInfo<const LitmusTest *> &info)
{
    std::string name = info.param->name;
    for (char &ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTests, ModelMonotonicity,
    ::testing::ValuesIn(TestRegistry::instance().all()),
    monotonicityName);

TEST(Checker, StopAtFirstAgreesOnVerdict)
{
    for (const char *name : {"SB+pos", "MP+dmb.sys", "SB+dmb.sy+eret",
                             "MP+dmb.sy+ctrlsvc"}) {
        const LitmusTest &test = TestRegistry::instance().get(name);
        EXPECT_EQ(checkTest(test, ModelParams::base(), true).observable,
                  checkTest(test, ModelParams::base(), false).observable)
            << name;
    }
}

} // namespace
} // namespace rex
