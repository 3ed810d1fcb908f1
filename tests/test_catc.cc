/**
 * @file
 * Tests for the catc subsystem: the cat-model compiler (compile.hh),
 * the constant-folding executor (exec.hh), the bytecode verifier
 * (bytecode.hh), and the compiled path's integration into the checker
 * and the verdict cache.
 *
 * The load-bearing properties (compiled == naive on every built-in
 * and generated test is test_staged_parity's job):
 *  - per candidate, the folded program's attributed run reproduces the
 *    cat interpreter exactly, and its fast run agrees on the verdict;
 *  - the sharded compiled check matches the serial one;
 *  - malformed bytecode is rejected by verify(), never executed;
 *  - programs are cached per model (every parameter) and model
 *    revision, so two models never share a program and
 *    interpreter-era cache entries are misses, not collisions.
 */

#include <cstdlib>
#include <random>

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "base/logging.hh"
#include "cat/catmodel.hh"
#include "cat/parser.hh"
#include "catc/bytecode.hh"
#include "catc/cache.hh"
#include "catc/compile.hh"
#include "catc/exec.hh"
#include "engine/cache.hh"
#include "engine/pool.hh"
#include "litmus/registry.hh"

namespace rex {
namespace {

/** Every CheckResult field, the witness's rf, co and interrupt
 *  witness included. */
void
expectSameResult(const CheckResult &a, const CheckResult &b,
                 const std::string &context)
{
    EXPECT_EQ(a.observable, b.observable) << context;
    EXPECT_EQ(a.candidates, b.candidates) << context;
    EXPECT_EQ(a.consistent, b.consistent) << context;
    EXPECT_EQ(a.witnesses, b.witnesses) << context;
    EXPECT_EQ(a.constrainedUnpredictable, b.constrainedUnpredictable)
        << context;
    EXPECT_EQ(a.unknownSideEffects, b.unknownSideEffects) << context;
    EXPECT_EQ(a.forbiddingAxiom, b.forbiddingAxiom) << context;
    EXPECT_EQ(a.forbiddingCycle, b.forbiddingCycle) << context;
    EXPECT_EQ(a.exhaustedAxis, b.exhaustedAxis) << context;
    EXPECT_EQ(a.witness.has_value(), b.witness.has_value()) << context;
    if (a.witness && b.witness) {
        EXPECT_EQ(a.witness->rf, b.witness->rf) << context;
        EXPECT_EQ(a.witness->co, b.witness->co) << context;
        EXPECT_EQ(a.witness->interruptWitness, b.witness->interruptWitness)
            << context;
    }
}

TEST(CatcParity, ShardedCompiledMatchesSerial)
{
    engine::ThreadPool pool(4);
    for (const char *name :
         {"MP.EL1+dmb.sy+dataesrsvc", "SB+dmb.sy+eret",
          "MPviaSGI+dsb.st", "LB+ctrlint+data"}) {
        const LitmusTest &test = TestRegistry::instance().get(name);
        for (const ModelParams &params : ModelParams::paperVariants()) {
            std::string context =
                test.name + " / " + params.name() + " (sharded)";
            expectSameResult(checkTest(test, params),
                             checkTest(test, params, false, true, &pool),
                             context);
            expectSameResult(
                checkTest(test, params, true, true),
                checkTest(test, params, true, true, &pool),
                context + " stop_at_first");
        }
    }
}

TEST(CatcExec, AttributedRunReproducesTheInterpreterPerCandidate)
{
    // Per-candidate ground truth: the compiled shipped model (with the
    // internal check, since no pre-filter runs here) must reproduce the
    // cat interpreter exactly — verdict, axiom name, and cycle — on
    // every builtin.
    const cat::CatModel &model = cat::CatModel::shipped();
    for (const ModelParams &params : ModelParams::paperVariants()) {
        const catc::Program program = catc::compileNative(params, true);
        for (const LitmusTest *test : TestRegistry::instance().all()) {
            SCOPED_TRACE(test->name + " / " + params.name());
            CandidateEnumerator enumerator(*test);
            enumerator.forEach([&](CandidateExecution &cand) {
                catc::FoldedProgram folded(program, cand);
                ModelResult expected = model.check(cand, params);
                ModelResult attributed = folded.runAttributed(cand);
                EXPECT_EQ(attributed.consistent, expected.consistent);
                EXPECT_EQ(attributed.failedAxiom, expected.failedAxiom);
                EXPECT_EQ(attributed.cycle, expected.cycle);
                ModelResult fast = folded.runFast(cand);
                EXPECT_EQ(fast.consistent, expected.consistent);
                EXPECT_TRUE(fast.failedAxiom.empty());
                return true;
            });
        }
    }
}

TEST(CatcExec, FoldEliminatesSkeletonWork)
{
    const LitmusTest &test =
        TestRegistry::instance().get("MP.EL1+dmb.sy+dataesrsvc");
    catc::Program program =
        catc::compileNative(ModelParams::base(), false);
    EXPECT_FALSE(program.ops.empty());
    EXPECT_FALSE(program.checks.empty());
    CandidateEnumerator enumerator(test);
    bool checked = false;
    enumerator.forEach([&](CandidateExecution &cand) {
        catc::FoldedProgram folded(program, cand);
        // The witness tail must be a strict minority of the program:
        // the whole static skeleton folds away.
        EXPECT_GT(folded.liveOps(), 0u);
        EXPECT_LT(folded.liveOps(), program.ops.size() / 2);
        checked = true;
        return false;
    });
    EXPECT_TRUE(checked);
}

TEST(CatcExec, RefoldMatchesFreshFoldAcrossTests)
{
    // refold() must behave exactly like constructing a fresh
    // FoldedProgram, both when the static signature matches (MP's trace
    // combinations differ only in read values) and when it changes
    // completely (hopping to a different test's candidates).
    const ModelParams params = ModelParams::base();
    catc::Program program = catc::compileNative(params, false);
    std::optional<catc::FoldedProgram> reused;
    for (const char *name :
         {"MP.EL1+dmb.sy+dataesrsvc", "SB+dmb.sy+eret", "ATOM-fail",
          "MP.EL1+dmb.sy+dataesrsvc"}) {
        const LitmusTest &test = TestRegistry::instance().get(name);
        CandidateEnumerator enumerator(test);
        enumerator.forEachStaged(
            [&](CandidateExecution &cand,
                const CandidateEnumerator::StagedInfo &info) {
                if (!info.coherent)
                    return true;
                if (!reused)
                    reused.emplace(program, cand);
                else
                    reused->refold(cand);
                catc::FoldedProgram fresh(program, cand);
                const ModelResult a = reused->runAttributed(cand);
                const ModelResult b = fresh.runAttributed(cand);
                EXPECT_EQ(a.consistent, b.consistent)
                    << name << ": refold diverged from a fresh fold";
                EXPECT_EQ(a.failedAxiom, b.failedAxiom) << name;
                EXPECT_EQ(a.cycle, b.cycle) << name;
                EXPECT_EQ(reused->runFast(cand).consistent, b.consistent)
                    << name;
                return true;
            });
    }
}

TEST(CatcVerifier, RejectsMalformedPrograms)
{
    using catc::Op;
    using catc::OpCode;

    // Operand register out of range (forward reference).
    catc::Program forward;
    forward.ops.push_back(
        {OpCode::LoadInput, static_cast<std::uint32_t>(catc::Input::Po),
         0, 0});
    forward.ops.push_back({OpCode::UnionRel, 0, 5, 0});
    EXPECT_NE(catc::verify(forward), "");

    // Input id out of range.
    catc::Program badInput;
    badInput.ops.push_back(
        {OpCode::LoadInput,
         static_cast<std::uint32_t>(catc::Input::Count_) + 7, 0, 0});
    EXPECT_NE(catc::verify(badInput), "");

    // Truncated program: a check naming a register that does not exist.
    catc::Program truncated;
    truncated.ops.push_back(
        {OpCode::LoadInput, static_cast<std::uint32_t>(catc::Input::Po),
         0, 0});
    truncated.checks.push_back(
        {catc::Check::Kind::Acyclic, 3, "dangling"});
    EXPECT_NE(catc::verify(truncated), "");

    // Kind confusion: an acyclicity check on a set register, and a
    // relation op fed a set operand.
    catc::Program setCycle;
    setCycle.ops.push_back(
        {OpCode::LoadInput, static_cast<std::uint32_t>(catc::Input::R),
         0, 0});
    setCycle.checks.push_back(
        {catc::Check::Kind::Acyclic, 0, "set-cycle"});
    EXPECT_NE(catc::verify(setCycle), "");

    catc::Program kindClash;
    kindClash.ops.push_back(
        {OpCode::LoadInput, static_cast<std::uint32_t>(catc::Input::R),
         0, 0});
    kindClash.ops.push_back({OpCode::Closure, 0, 0, 0});
    EXPECT_NE(catc::verify(kindClash), "");

    // The shipped program passes and fills kinds.
    catc::Program good = catc::compileNative(ModelParams::base(), true);
    EXPECT_EQ(good.kinds.size(), good.ops.size());
}

/** Interpreter-vs-compiled comparison for one cat source over every
 *  candidate of @p testName. */
void
expectCatParity(const std::string &source, const char *testName,
                const ModelParams &params)
{
    cat::CatModel model = cat::CatModel::fromSource(source);
    catc::CatCompileResult compiled =
        catc::compileCat(model.file(), cat::flagsFor(params));
    ASSERT_TRUE(compiled.program.has_value()) << compiled.error;
    const LitmusTest &test = TestRegistry::instance().get(testName);
    CandidateEnumerator enumerator(test);
    enumerator.forEach([&](CandidateExecution &cand) {
        cat::EvalResult expected = model.evaluate(cand, params);
        catc::FoldedProgram folded(*compiled.program, cand);
        ModelResult actual = folded.runAttributed(cand);
        EXPECT_EQ(actual.consistent, expected.consistent);
        if (!expected.consistent) {
            const cat::CheckOutcome *first = nullptr;
            for (const cat::CheckOutcome &outcome : expected.checks) {
                if (!outcome.passed) {
                    first = &outcome;
                    break;
                }
            }
            EXPECT_NE(first, nullptr);
            if (first) {
                EXPECT_EQ(actual.failedAxiom, first->name);
                EXPECT_EQ(actual.cycle, first->cycle);
            }
        }
        return true;
    });
}

TEST(CatcCompiler, ShippedModelCompilesAndMatchesInterpreter)
{
    // The shipped aarch64-exceptions.cat (includes flattened at load)
    // must be inside the compilable subset and agree with the
    // interpreter check-for-check.
    const cat::CatModel &model = cat::CatModel::shipped();
    for (const char *name :
         {"MP.EL1+dmb.sy+dataesrsvc", "SB+dmb.sy+eret",
          "MP+dmb.sy+ctrlsvc"}) {
        for (const ModelParams &params : ModelParams::paperVariants()) {
            catc::CatCompileResult compiled =
                catc::compileCat(model.file(), cat::flagsFor(params));
            ASSERT_TRUE(compiled.program.has_value()) << compiled.error;
            const LitmusTest &test = TestRegistry::instance().get(name);
            CandidateEnumerator enumerator(test);
            enumerator.forEach([&](CandidateExecution &cand) {
                cat::EvalResult expected = model.evaluate(cand, params);
                catc::FoldedProgram folded(*compiled.program, cand);
                ModelResult actual = folded.runAttributed(cand);
                EXPECT_EQ(actual.consistent, expected.consistent)
                    << test.name << " / " << params.name();
                return true;
            });
        }
    }
}

TEST(CatcCompiler, ZeroPolymorphismMatchesEvaluator)
{
    // The evaluator's polymorphic zero rules, exercised through the
    // compiler: zero|rel, zero&set, zero in a sequence, empty-on-zero
    // (which the evaluator treats as an (empty) relation).
    const std::string source = R"("zeros"
let z = 0
let u = z | po
let zz = 0 | 0
let s = z & R
let q = z; po
empty zz as both-zero
empty s as zero-set
acyclic u as zero-union
acyclic q as zero-seq
acyclic po-loc | fr | co | rf as internal
)";
    expectCatParity(source, "SB+dmb.sy+eret", ModelParams::base());
}

TEST(CatcCompiler, ConstantChecksFoldAway)
{
    // A check over witness-independent registers must be resolved at
    // fold time (dead-code elimination), leaving no per-candidate work.
    const std::string source = R"("static"
let stat = po; [W] | addr | data
acyclic stat as static-check
acyclic po-loc | fr | co | rf as internal
)";
    cat::CatModel model = cat::CatModel::fromSource(source);
    catc::CatCompileResult compiled =
        catc::compileCat(model.file(), cat::flagsFor(ModelParams::base()));
    ASSERT_TRUE(compiled.program.has_value()) << compiled.error;
    const LitmusTest &test =
        TestRegistry::instance().get("SB+dmb.sy+eret");
    CandidateEnumerator enumerator(test);
    enumerator.forEach([&](CandidateExecution &cand) {
        catc::FoldedProgram folded(*compiled.program, cand);
        EXPECT_EQ(folded.constChecks(), 1u);
        return false;
    });
    expectCatParity(source, "SB+dmb.sy+eret", ModelParams::base());
}

/** True when every op of @p program is read by some check. */
void
expectEveryOpRead(const catc::Program &program, const std::string &context)
{
    std::vector<std::uint8_t> read(program.ops.size(), 0);
    for (const catc::Check &check : program.checks)
        read[check.reg] = 1;
    std::uint32_t operands[3];
    for (std::size_t i = program.ops.size(); i-- > 0;) {
        if (!read[i])
            continue;
        const int count = catc::operandsOf(program.ops[i], operands);
        for (int j = 0; j < count; ++j)
            read[operands[j]] = 1;
    }
    for (std::size_t i = 0; i < program.ops.size(); ++i)
        EXPECT_TRUE(read[i]) << context << ": r" << i << " is dead";
}

TEST(CatcCompiler, IrreflexiveClosureCompilesToAcyclic)
{
    // `irreflexive ob` with ob = (...)+ checks `acyclic` of the union:
    // no closure is built per candidate, and the counterexample is the
    // interpreter's cycle of the union, not a reflexive 1-cycle.
    const ModelParams params = ModelParams::base();
    const cat::CatModel &model = cat::CatModel::shipped();
    const catc::Program program = catc::compileNative(params, true);
    for (const catc::Op &op : program.ops)
        EXPECT_NE(op.code, catc::OpCode::Closure);
    const catc::Check &external = program.checks.at(1);
    EXPECT_EQ(external.name, "external");
    EXPECT_EQ(external.kind, catc::Check::Kind::Acyclic);

    std::size_t externalFailures = 0;
    for (const char *name : {"MP+dmb.sy+ctrlsvc", "SB+dmb.sy+eret"}) {
        const LitmusTest &test = TestRegistry::instance().get(name);
        CandidateEnumerator enumerator(test);
        enumerator.forEach([&](CandidateExecution &cand) {
            const ModelResult expected = model.check(cand, params);
            if (expected.failedAxiom != "external")
                return true;
            ++externalFailures;
            catc::FoldedProgram folded(program, cand);
            const ModelResult actual = folded.runAttributed(cand);
            EXPECT_EQ(actual.failedAxiom, "external") << name;
            EXPECT_EQ(actual.cycle, expected.cycle) << name;
            EXPECT_GT(actual.cycle->size(), 1u) << name;
            return true;
        });
    }
    EXPECT_GT(externalFailures, 0u);
}

TEST(CatcCompiler, IdentitySequencesFuseIntoRestrictions)
{
    const auto flags = cat::flagsFor(ModelParams::base());
    auto countOps = [](const catc::Program &program, catc::OpCode code) {
        return std::count_if(program.ops.begin(), program.ops.end(),
                             [&](const catc::Op &op) {
                                 return op.code == code;
                             });
    };
    for (const char *expr : {"[R]; po; [W]", "[R]; (po; [W])"}) {
        catc::CatCompileResult both = catc::compileCat(
            cat::parseCat(std::string("\"m\"\nacyclic ") + expr +
                          " as c\n"),
            flags);
        ASSERT_TRUE(both.program.has_value()) << both.error;
        EXPECT_EQ(countOps(*both.program, catc::OpCode::Restricted), 1)
            << expr << "\n" << both.program->toString();
        EXPECT_EQ(countOps(*both.program, catc::OpCode::Seq), 0) << expr;
        EXPECT_EQ(countOps(*both.program, catc::OpCode::IdentityOn), 0)
            << expr;
    }
    catc::CatCompileResult sides = catc::compileCat(
        cat::parseCat("\"m\"\nacyclic [R]; po as d\n"
                      "acyclic po; [W] as r\n"),
        flags);
    ASSERT_TRUE(sides.program.has_value()) << sides.error;
    EXPECT_EQ(countOps(*sides.program, catc::OpCode::RestrictDomain), 1);
    EXPECT_EQ(countOps(*sides.program, catc::OpCode::RestrictRange), 1);
    EXPECT_EQ(countOps(*sides.program, catc::OpCode::Seq), 0);
}

TEST(CatcCompiler, ConstantHalfOfObFoldsIntoOneRegister)
{
    // Unions keep their witness-independent half apart, so the whole
    // static part of ob is one folded register and the per-candidate
    // tail of the base program is 19 ops: rf, co, interrupt, the
    // derived rfi/rfe/fr/fre/coe, and the unions and checks over them.
    const catc::Program program =
        catc::compileNative(ModelParams::base(), false);
    const catc::FoldPlan plan(program);
    EXPECT_EQ(plan.liveOps(), 19u) << program.toString();
}

TEST(CatcCompiler, NoCompiledProgramKeepsADeadOp)
{
    for (const ModelParams &params : ModelParams::paperVariants()) {
        for (bool internal : {false, true}) {
            expectEveryOpRead(catc::compileNative(params, internal),
                              params.name());
        }
        for (const char *name :
             {"aarch64-base.cat", "aarch64-exceptions.cat"}) {
            catc::CatCompileResult compiled = catc::compileCat(
                cat::CatModel::fromShipped(name).file(),
                cat::flagsFor(params));
            ASSERT_TRUE(compiled.program.has_value()) << compiled.error;
            expectEveryOpRead(*compiled.program, name);
        }
    }
}

TEST(CatcCompiler, RejectsOutsideTheCompilableSubset)
{
    const ModelParams params = ModelParams::base();
    const auto flags = cat::flagsFor(params);

    catc::CatCompileResult rec = catc::compileCat(
        cat::parseCat("\"m\"\nlet rec x = po | x; po\nacyclic x as r\n"),
        flags);
    EXPECT_FALSE(rec.program.has_value());
    EXPECT_NE(rec.error.find("rec"), std::string::npos) << rec.error;

    catc::CatCompileResult flag = catc::compileCat(
        cat::parseCat("\"m\"\nflag ~empty po as diag\n"), flags);
    EXPECT_FALSE(flag.program.has_value());

    catc::CatCompileResult include = catc::compileCat(
        cat::parseCat("\"m\"\ninclude \"cos.cat\"\n"), flags);
    EXPECT_FALSE(include.program.has_value());
    EXPECT_NE(include.error.find("include"), std::string::npos)
        << include.error;
}

TEST(CatcRelation, HasCycleAgreesWithAcyclic)
{
    std::mt19937_64 rng(20250808);
    for (int round = 0; round < 400; ++round) {
        const std::size_t n = 1 + rng() % 80;
        Relation r(n);
        // Sweep densities across rounds: sparse relations are usually
        // acyclic, dense ones cyclic; both sides must agree.
        const std::uint64_t density = 1 + rng() % (2 * n);
        for (EventId a = 0; a < n; ++a) {
            for (EventId b = 0; b < n; ++b) {
                if (rng() % (n * 2) < density)
                    r.add(a, b);
            }
        }
        EXPECT_EQ(r.hasCycle(), !r.acyclic()) << "n=" << n;
    }
    // Edge cases: empty, identity (self-loop), simple 2-cycle.
    Relation empty(8);
    EXPECT_FALSE(empty.hasCycle());
    Relation self(8);
    self.add(3, 3);
    EXPECT_TRUE(self.hasCycle());
    Relation pair(8);
    pair.add(1, 5);
    pair.add(5, 1);
    EXPECT_TRUE(pair.hasCycle());
    Relation chain(8);
    chain.add(0, 1);
    chain.add(1, 2);
    chain.add(2, 7);
    EXPECT_FALSE(chain.hasCycle());
}

TEST(CatcCache, ProgramIdEmbedsModelRevision)
{
    const std::string id = catc::programId(ModelParams::base());
    EXPECT_NE(id.find(engine::kModelRevision), std::string::npos) << id;
    EXPECT_NE(id.find(engine::canonicalParamsText(ModelParams::base())),
              std::string::npos) << id;
    // One program per model, stable across calls.
    EXPECT_EQ(id, catc::programId(ModelParams::base()));
    EXPECT_NE(id, catc::programId(ModelParams::paperVariants().back()));
    // Models that share a display name still get distinct programs.
    ModelParams noGic = ModelParams::base();
    noGic.gicExtension = false;
    EXPECT_EQ(noGic.name(), "base");
    EXPECT_NE(id, catc::programId(noGic));
    ModelParams seaRNoEts2 = ModelParams::seaReads();
    seaRNoEts2.featEts2 = false;
    EXPECT_EQ(seaRNoEts2.name(), "noETS2");
    EXPECT_NE(catc::programId(ModelParams::byName("noETS2")),
              catc::programId(seaRNoEts2));
}

TEST(CatcCache, UnnamedModelsNeverReuseANamedVariantsProgram)
{
    // Compile the named variants first, so a cache keyed by display
    // name would hand their programs to the two models below.
    catc::planForCheck(ModelParams::base());
    catc::planForCheck(ModelParams::byName("noETS2"));
    ModelParams noGic = ModelParams::base();
    noGic.gicExtension = false;
    ModelParams seaRNoEts2 = ModelParams::seaReads();
    seaRNoEts2.featEts2 = false;
    for (const ModelParams &params : {noGic, seaRNoEts2}) {
        for (const LitmusTest *test : TestRegistry::instance().all()) {
            const std::string context =
                test->name + " / " + engine::canonicalParamsText(params);
            expectSameResult(checkTest(*test, params),
                             checkTestNaive(*test, params), context);
        }
    }
}

TEST(CatcCache, CompileOncePerVariant)
{
    const catc::CompileStats before = catc::compileStats();
    auto first = catc::stagedProgram(ModelParams::base());
    auto second = catc::stagedProgram(ModelParams::base());
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get());
    const catc::CompileStats after = catc::compileStats();
    EXPECT_GE(after.hits, before.hits + 1);
    EXPECT_EQ(first->id, catc::programId(ModelParams::base()));
}

TEST(CatcCache, StaleRevisionVerdictEntryIsAMiss)
{
    // Satellite: the kModelRevision bump must make interpreter-era
    // verdict-cache entries (stored under the old revision) misses for
    // the compiled path, in memory and on disk.
    const LitmusTest &test =
        TestRegistry::instance().get("SB+dmb.sy+eret");
    const ModelParams params = ModelParams::base();
    constexpr const char *kOldRevision = "fig9-native-r1";
    ASSERT_STRNE(engine::kModelRevision, kOldRevision);

    const engine::VerdictKey oldKey =
        engine::VerdictKey::make(test, params, kOldRevision);
    const engine::VerdictKey newKey =
        engine::VerdictKey::make(test, params);
    EXPECT_NE(oldKey.text, newKey.text);
    EXPECT_NE(oldKey.hash, newKey.hash);

    char dirTemplate[] = "/tmp/rex-catc-cache-XXXXXX";
    ASSERT_NE(::mkdtemp(dirTemplate), nullptr);
    engine::CachedVerdict verdict;
    verdict.observable = true;
    verdict.candidates = 42;
    {
        engine::VerdictCache cache(true, dirTemplate);
        cache.store(oldKey, verdict);
    }
    {
        // A fresh cache over the same directory: the old-revision
        // entry is present on disk but must not satisfy a
        // current-revision lookup.
        engine::VerdictCache cache(true, dirTemplate);
        EXPECT_FALSE(cache.lookup(newKey).has_value());
        auto stale = cache.lookup(oldKey);
        ASSERT_TRUE(stale.has_value());
        EXPECT_EQ(stale->candidates, 42u);
    }
}

TEST(CatcProgram, DisassemblyIsStable)
{
    catc::Program program =
        catc::compileNative(ModelParams::base(), true);
    const std::string text = program.toString();
    EXPECT_NE(text.find("load rf"), std::string::npos);
    EXPECT_NE(text.find("acyclic"), std::string::npos);
    EXPECT_NE(text.find("external"), std::string::npos);
    EXPECT_NE(text.find("empty"), std::string::npos);
    // CSE/value numbering: no two ops may be textually identical.
    // (Disassembly lines are exactly the op table, one per line.)
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(start, end - start);
        // Strip the register name ("rN = ..." -> "..."): equal bodies
        // in different registers are the CSE violation.
        std::size_t eq = line.find(" = ");
        if (eq != std::string::npos)
            lines.push_back(line.substr(eq + 3));
        start = end + 1;
    }
    std::sort(lines.begin(), lines.end());
    EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()),
              lines.end())
        << "duplicate op bodies survived value numbering";
}

} // namespace
} // namespace rex
