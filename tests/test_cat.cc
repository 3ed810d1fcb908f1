/**
 * @file
 * Tests for the cat interpreter: lexer/parser units, evaluator semantics
 * on hand-built candidates, and — most importantly — per-candidate
 * cross-validation of the compiled aarch64-exceptions.cat (catc)
 * against this interpreter over the whole litmus library: verdict,
 * failed axiom and cycle (the repository's Figure 9 "model ==
 * implementation" check).
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "base/logging.hh"
#include "cat/catmodel.hh"
#include "cat/lexer.hh"
#include "cat/eval.hh"
#include "cat/parser.hh"
#include "catc/compile.hh"
#include "catc/exec.hh"
#include "litmus/registry.hh"

namespace rex {
namespace {

using cat::CatFile;
using cat::CatModel;
using cat::parseCat;

TEST(CatLexer, TokenizesFigureNineFragment)
{
    auto tokens = cat::tokenize(
        "let speculative = ctrl | addr; po "
        "| if \"SEA_R\" then [R]; po else 0");
    ASSERT_FALSE(tokens.empty());
    EXPECT_EQ(tokens[0].kind, cat::TokKind::KwLet);
    EXPECT_EQ(tokens[1].text, "speculative");
}

TEST(CatLexer, HandlesNestedComments)
{
    auto tokens = cat::tokenize("(* a (* nested *) comment *) let x = po");
    EXPECT_EQ(tokens[0].kind, cat::TokKind::KwLet);
}

TEST(CatLexer, HyphenatedIdentifiers)
{
    auto tokens = cat::tokenize("acyclic po-loc | fr as internal");
    EXPECT_EQ(tokens[1].text, "po-loc");
}

TEST(CatParser, ParsesChecksAndLets)
{
    CatFile file = parseCat(
        "\"toy\"\n"
        "let a = po; po\n"
        "acyclic a as myCheck\n"
        "irreflexive a+\n"
        "empty a & a as e\n");
    EXPECT_EQ(file.modelName, "toy");
    ASSERT_EQ(file.statements.size(), 4u);
    EXPECT_EQ(file.statements[1].checkName, "myCheck");
}

TEST(CatParser, IfBranchesBindAtSeqLevel)
{
    // The union must continue after the conditional's else branch.
    CatFile file = parseCat(
        "let s = ctrl | if \"F\" then [R]; po else 0 | addr\n");
    const cat::Expr &top = *file.statements[0].bindings[0].second;
    // Top must be a union whose right-hand side is 'addr'.
    ASSERT_EQ(top.kind, cat::Expr::Kind::Union);
    EXPECT_EQ(top.rhs->kind, cat::Expr::Kind::Name);
    EXPECT_EQ(top.rhs->name, "addr");
}

TEST(CatParser, HerdCompatibilityStatements)
{
    // show/unshow/flag are accepted (herd compatibility); show is a
    // no-op, flag only warns.
    CatFile file = parseCat(
        "let a = po\n"
        "show a, a; a as b\n"
        "unshow a\n"
        "flag ~empty a as diag\n");
    ASSERT_EQ(file.statements.size(), 4u);
    EXPECT_EQ(file.statements[1].kind, cat::Statement::Kind::Show);
    EXPECT_EQ(file.statements[3].kind, cat::Statement::Kind::Flag);
    EXPECT_TRUE(file.statements[3].flagNegated);
}

TEST(CatParser, RejectsGarbage)
{
    EXPECT_THROW(parseCat("let = po"), FatalError);
    EXPECT_THROW(parseCat("acyclic"), FatalError);
    EXPECT_THROW(cat::tokenize("let a = po ^ po"), FatalError);
}

/** A small hand-built candidate: two threads, one location. */
CandidateExecution
tinyCandidate()
{
    CandidateExecution cand;
    cand.locNames = {"x"};
    cand.numThreads = 2;

    Event init;
    init.id = 0;
    init.kind = EventKind::WriteMem;
    init.initial = true;
    cand.events.push_back(init);

    Event w;
    w.id = 1;
    w.tid = 0;
    w.poIndex = 0;
    w.kind = EventKind::WriteMem;
    w.value = 1;
    cand.events.push_back(w);

    Event r;
    r.id = 2;
    r.tid = 1;
    r.poIndex = 0;
    r.kind = EventKind::ReadMem;
    r.value = 1;
    cand.events.push_back(r);

    std::size_t n = cand.events.size();
    cand.po = Relation(n);
    cand.iio = Relation(n);
    cand.addr = Relation(n);
    cand.data = Relation(n);
    cand.ctrl = Relation(n);
    cand.rmw = Relation(n);
    cand.rf = Relation(n);
    cand.co = Relation(n);
    cand.interruptWitness = Relation(n);
    cand.rf.add(1, 2);
    cand.co.add(0, 1);
    cand.finalRegs.resize(2);
    return cand;
}

TEST(CatEval, BuiltinsAndOperators)
{
    CandidateExecution cand = tinyCandidate();
    cat::Evaluator eval(cand, {{"F", true}}, nullptr);

    CatFile file = parseCat(
        "let rw = [W]; (rf | co)\n"
        "let viaif = if \"F\" then rf else 0\n"
        "let viaelse = if \"G\" then rf else 0\n"
        "acyclic rf | co as ok\n");
    cat::EvalResult result = eval.evaluateFile(file);
    EXPECT_TRUE(result.consistent);
    ASSERT_EQ(result.checks.size(), 1u);
    EXPECT_TRUE(result.checks[0].passed);

    EXPECT_EQ(eval.binding("viaif").asRel(cand.size()).pairCount(), 1u);
    EXPECT_EQ(eval.binding("viaelse").asRel(cand.size()).pairCount(), 0u);
    EXPECT_TRUE(eval.binding("rw").asRel(cand.size()).contains(1, 2));
}

TEST(CatEval, DetectsCycles)
{
    CandidateExecution cand = tinyCandidate();
    cat::Evaluator eval(cand, {}, nullptr);
    CatFile file = parseCat("acyclic rf | rf^-1 as bad\n");
    cat::EvalResult result = eval.evaluateFile(file);
    EXPECT_FALSE(result.consistent);
    ASSERT_TRUE(result.checks[0].cycle.has_value());
}

TEST(CatEval, IrreflexiveClosureReportsACycleOfItsOperand)
{
    // `irreflexive ob` with ob = (...)+ fails exactly when the operand
    // has a cycle; the interpreter reports that cycle, as the compiled
    // program does, not one reflexive event of the closure.
    const LitmusTest &test = TestRegistry::instance().get("MP+dmb.sys");
    const ModelParams params = ModelParams::base();
    const catc::Program program = catc::compileNative(params, true);
    std::size_t externalFailures = 0;
    CandidateEnumerator enumerator(test);
    enumerator.forEach([&](CandidateExecution &cand) {
        const ModelResult interpreted =
            CatModel::shipped().check(cand, params);
        if (interpreted.failedAxiom != "external")
            return true;
        ++externalFailures;
        EXPECT_GT(interpreted.cycle.value_or(std::vector<EventId>{}).size(),
                  1u);
        const ModelResult compiled =
            catc::FoldedProgram(program, cand).runAttributed(cand);
        EXPECT_EQ(interpreted.cycle, compiled.cycle);
        return true;
    });
    EXPECT_GT(externalFailures, 0u);
}

TEST(CatEval, FlagWarnsButNeverFails)
{
    CandidateExecution cand = tinyCandidate();
    cat::Evaluator eval(cand, {}, nullptr);
    CatFile file = parseCat(
        "show rf\n"
        "flag ~empty rf as diag\n"
        "acyclic rf as ok\n");
    cat::EvalResult result = eval.evaluateFile(file);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.checks.size(), 1u);  // only the acyclic check
}

TEST(CatEval, RecursiveLetComputesFixpoint)
{
    CandidateExecution cand = tinyCandidate();
    cat::Evaluator eval(cand, {}, nullptr);
    // A recursive definition of transitive closure over (rf | po-ish):
    // r = base | r; base must equal base+.
    CatFile file = parseCat(
        "let base = rf | co\n"
        "let direct = base+\n"
        "let rec r = base | r; base\n");
    eval.evaluateFile(file);
    EXPECT_EQ(eval.binding("r").asRel(cand.size()),
              eval.binding("direct").asRel(cand.size()));
}

TEST(CatEval, MutuallyRecursiveLets)
{
    CandidateExecution cand = tinyCandidate();
    cat::Evaluator eval(cand, {}, nullptr);
    // Mutually recursive pair whose union is the closure of rf | co.
    CatFile file = parseCat(
        "let base = rf | co\n"
        "let rec a = base | b; base\n"
        "and b = a\n"
        "let direct = base+\n");
    eval.evaluateFile(file);
    EXPECT_EQ(eval.binding("a").asRel(cand.size()),
              eval.binding("direct").asRel(cand.size()));
}

TEST(CatEval, RangeAndDomain)
{
    CandidateExecution cand = tinyCandidate();
    cat::Evaluator eval(cand, {}, nullptr);
    CatFile file = parseCat(
        "let d = domain(rf)\n"
        "let r = range(rf)\n");
    eval.evaluateFile(file);
    EXPECT_TRUE(eval.binding("d").asSet(cand.size()).contains(1));
    EXPECT_TRUE(eval.binding("r").asSet(cand.size()).contains(2));
}

TEST(CatModelFile, ShippedModelLoads)
{
    const CatModel &model = CatModel::shipped();
    EXPECT_EQ(model.name(), "Arm-A exceptions");
}

TEST(CatModelFile, EmbeddedModelsMatchTheModelsDirectory)
{
    // The library embeds models/*.cat at build time; an embed the build
    // did not refresh after a model edit must fail here.
    std::vector<std::string> on_disk;
    for (const auto &entry :
             std::filesystem::directory_iterator(REX_MODEL_DIR)) {
        if (entry.path().extension() == ".cat")
            on_disk.push_back(entry.path().filename().string());
    }
    std::sort(on_disk.begin(), on_disk.end());

    std::vector<std::string> embedded;
    for (const cat::ShippedFile &file : cat::shippedFiles()) {
        embedded.emplace_back(file.name);
        std::ifstream in(std::string(REX_MODEL_DIR) + "/" +
                             std::string(file.name),
                         std::ios::binary);
        ASSERT_TRUE(in) << file.name;
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_EQ(text.str(), file.text) << file.name;
        EXPECT_EQ(cat::shippedText(file.name), file.text) << file.name;
    }
    EXPECT_EQ(embedded, on_disk);
}

TEST(CatModelFile, ExceptionsModelConservativeOverBase)
{
    // On exception-free candidates the exceptions model must agree with
    // the shipped user-mode base model: the extension only adds clauses
    // over the new event kinds.
    CatModel base_model = CatModel::fromShipped("aarch64-base.cat");
    const CatModel &exc_model = CatModel::shipped();
    ModelParams params = ModelParams::base();

    for (const LitmusTest *test :
            TestRegistry::instance().suite("core")) {
        CandidateEnumerator enumerator(*test);
        std::size_t checked = 0;
        enumerator.forEach([&](CandidateExecution &cand) {
            // Skip candidates with exception machinery (CMP tests with
            // SVC live in core too).
            if (cand.takeExceptions().count() != 0 ||
                    cand.erets().count() != 0) {
                return true;
            }
            bool base_ok =
                base_model.check(cand, params).consistent;
            bool exc_ok = exc_model.check(cand, params).consistent;
            EXPECT_EQ(base_ok, exc_ok) << test->name;
            return ++checked < 1000;
        });
    }
}

// ---------------------------------------------------------------------
// Cross-validation: the compiled shipped model and the interpreter must
// give the same verdict, failed axiom and cycle on every candidate of
// every test, under every paper variant.
// ---------------------------------------------------------------------

struct CrossCase {
    const LitmusTest *test;
    std::string variant;
};

std::vector<CrossCase>
crossCases()
{
    std::vector<CrossCase> cases;
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        cases.push_back({test, "base"});
        for (const auto &[variant, allowed] : test->variantAllowed)
            cases.push_back({test, variant});
    }
    return cases;
}

std::string
describe(const ModelResult &result)
{
    std::string text = result.consistent ? "consistent"
                                         : "fails " + result.failedAxiom;
    if (result.cycle) {
        text += " cycle";
        for (EventId e : *result.cycle)
            text += " " + std::to_string(e);
    }
    return text;
}

class CatCrossValidation : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CatCrossValidation, CompiledAgreesWithInterpreterPerCandidate)
{
    const CrossCase &c = GetParam();
    ModelParams params = ModelParams::byName(c.variant);
    const CatModel &model = CatModel::shipped();
    const catc::Program program = catc::compileNative(params, true);

    CandidateEnumerator enumerator(*c.test);
    std::size_t checked = 0;
    std::size_t disagreements = 0;
    enumerator.forEach([&](CandidateExecution &cand) {
        const ModelResult compiled =
            catc::FoldedProgram(program, cand).runAttributed(cand);
        const ModelResult interpreted = model.check(cand, params);
        if (compiled.consistent != interpreted.consistent ||
                compiled.failedAxiom != interpreted.failedAxiom ||
                compiled.cycle != interpreted.cycle) {
            ++disagreements;
            ADD_FAILURE() << c.test->name << " under " << c.variant
                          << ": compiled " << describe(compiled)
                          << ", cat " << describe(interpreted) << "\n"
                          << cand.dump();
        }
        ++checked;
        // Cap the work per test; disagreement anywhere still fails.
        return checked < 2000 && disagreements == 0;
    });
    EXPECT_GT(checked, 0u);
}

std::string
crossName(const ::testing::TestParamInfo<CrossCase> &info)
{
    std::string name = info.param.test->name + "_" + info.param.variant;
    for (char &ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllTests, CatCrossValidation,
                         ::testing::ValuesIn(crossCases()), crossName);

} // namespace
} // namespace rex
