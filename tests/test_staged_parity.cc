/**
 * @file
 * Parity tests for the staged candidate-enumeration fast path: the
 * staged checker (skeleton reuse + coherence pre-filter +
 * mutate-and-undo odometer) must be observationally identical to the
 * retained naive reference path (fresh candidate copy per witness
 * assignment, full model check per candidate) on every built-in litmus
 * test, and on rexgen's random and cycle-mode tests, under every paper
 * model variant — same counts, same verdict, same forbidding
 * explanation — and the sharded parallel path must be byte-identical to
 * the serial one. The staged checker evaluates the compiled Figure 9
 * program (catc); the naive path runs the native clauses.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "base/logging.hh"
#include "engine/pool.hh"
#include "gen/cycle.hh"
#include "gen/generator.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"

namespace rex {
namespace {

/** Every field of the two results that the staged path promises to
 *  preserve (the witness itself is compared where captured). */
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
    EXPECT_EQ(a.witness.has_value(), b.witness.has_value()) << context;
    if (a.witness && b.witness) {
        EXPECT_EQ(a.witness->rf, b.witness->rf) << context;
        EXPECT_EQ(a.witness->co, b.witness->co) << context;
        EXPECT_EQ(a.witness->interruptWitness, b.witness->interruptWitness)
            << context;
    }
}

/** checkTest against the naive reference under every paper variant,
 *  exhaustively and in verdict-only mode. */
void
expectMatchesNaiveAllVariants(const LitmusTest &test,
                              const std::string &name)
{
    for (const ModelParams &params : ModelParams::paperVariants()) {
        std::string context = name + " / " + params.name();
        expectSameResult(checkTest(test, params),
                         checkTestNaive(test, params), context);
        // Verdict-only mode stops at different candidates, so it is a
        // distinct code path: compare it too.
        expectSameResult(checkTest(test, params, true, false),
                         checkTestNaive(test, params, true, false),
                         context + " (stop_at_first)");
    }
}

TEST(StagedParity, AllBuiltinTestsAllVariants)
{
    for (const LitmusTest *test : TestRegistry::instance().all())
        expectMatchesNaiveAllVariants(*test, test->name);
}

TEST(StagedParity, GeneratedRandomTestsAllVariants)
{
    // rexgen's random mode reaches shapes no builtin has; the hammer
    // trusts the compiled program on all of them.
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        const gen::GeneratedTest generated =
            gen::generate(seed, gen::GenConfig{});
        expectMatchesNaiveAllVariants(parseLitmus(generated.source),
                                      "random seed " +
                                          std::to_string(seed));
    }
}

TEST(StagedParity, GeneratedCycleTestsAllVariants)
{
    const std::vector<gen::Cycle> inventory =
        gen::enumerateCycles(gen::CycleConfig{});
    ASSERT_GE(inventory.size(), 50u);
    for (std::size_t i = 0; i < 50; ++i) {
        const gen::GeneratedTest generated =
            gen::synthesizeCycle(inventory[i]);
        expectMatchesNaiveAllVariants(parseLitmus(generated.source),
                                      gen::cycleName(inventory[i]));
    }
}

TEST(StagedParity, PrefilterAgreesWithFullInternalCheck)
{
    // REX_PREFILTER_CHECK=1 makes the enumerator panic if the cheap
    // per-location coherence pre-filter ever disagrees with the full
    // SC-per-location cycle check; sweeping every built-in test under
    // it is the strongest soundness exercise we have.
    ASSERT_EQ(setenv("REX_PREFILTER_CHECK", "1", 1), 0);
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        CandidateEnumerator enumerator(*test);
        std::size_t n = 0;
        enumerator.forEachStaged(
            [&](CandidateExecution &,
                const CandidateEnumerator::StagedInfo &) {
                ++n;
                return true;
            });
        EXPECT_EQ(n, enumerator.count()) << test->name;
    }
    ASSERT_EQ(unsetenv("REX_PREFILTER_CHECK"), 0);
}

TEST(StagedParity, ShardedMatchesSerial)
{
    engine::ThreadPool pool(4);
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        for (const ModelParams &params : ModelParams::paperVariants()) {
            std::string context = test->name + " / " + params.name();
            expectSameResult(checkTest(*test, params),
                             checkTest(*test, params, false, true, &pool),
                             context + " (sharded)");
            expectSameResult(
                checkTest(*test, params, true, true),
                checkTest(*test, params, true, true, &pool),
                context + " (sharded stop_at_first)");
        }
    }
}

TEST(StagedParity, PermutationGuardFires)
{
    // Nine same-location stores would need 9! coherence orders per
    // combination: the enumerator must refuse with a diagnostic naming
    // the test instead of silently exploding.
    std::string text = "name: nine-writes\ninit: *x=0";
    std::string threads;
    for (int i = 0; i < 9; ++i) {
        text += "; " + std::to_string(i) + ":X1=x; " + std::to_string(i) +
                ":X0=" + std::to_string(i + 1);
        threads += "thread " + std::to_string(i) + ":\n    STR X0,[X1]\n";
    }
    text += "\n" + threads + "allowed: *x=1\n";
    LitmusTest test = parseLitmus(text);
    CandidateEnumerator enumerator(test);
    EXPECT_THROW(
        enumerator.forEach([](CandidateExecution &) { return true; }),
        FatalError);
}

} // namespace
} // namespace rex
