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

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "base/logging.hh"
#include "engine/governor.hh"
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
    EXPECT_EQ(a.exhaustedAxis, b.exhaustedAxis) << context;
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

/** Does the full internal (SC-per-location) axiom accept @p cand? */
bool
internallyCoherent(const CandidateExecution &cand)
{
    const Relation internal = cand.poLoc() | cand.fr() | cand.co | cand.rf;
    return !internal.findCycle().has_value();
}

TEST(StagedParity, PrefilterAgreesWithFullInternalCheck)
{
    // The cheap per-location coherence pre-filter must agree with the
    // full SC-per-location cycle check on every candidate, through
    // both the serial walk and the pooled walk's shard visitor;
    // sweeping every built-in test is the strongest soundness exercise
    // we have.
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        CandidateEnumerator enumerator(*test);
        std::size_t staged = 0;
        enumerator.forEachStaged(
            [&](CandidateExecution &cand,
                const CandidateEnumerator::StagedInfo &info) {
                EXPECT_EQ(info.coherent, internallyCoherent(cand))
                    << test->name << " candidate " << staged;
                ++staged;
                return true;
            });
        std::size_t sharded = 0;
        for (const CandidateEnumerator::Shard &shard :
                 enumerator.planShards()) {
            enumerator.visitShard(
                shard, [&](CandidateExecution &cand,
                           const CandidateEnumerator::StagedInfo &info) {
                    EXPECT_EQ(info.coherent, internallyCoherent(cand))
                        << test->name << " shard " << shard.index;
                    ++sharded;
                    return true;
                });
        }
        EXPECT_EQ(staged, enumerator.count()) << test->name;
        EXPECT_EQ(sharded, staged) << test->name;
    }
}

/** What a walk saw of one candidate: its reported position and its
 *  witness relations. */
struct Visit {
    std::uint64_t shard;
    std::uint64_t offset;
    std::uint64_t combo;
    bool coherent;
    std::string witness;

    bool
    operator==(const Visit &other) const
    {
        return shard == other.shard && offset == other.offset &&
               combo == other.combo && coherent == other.coherent &&
               witness == other.witness;
    }
};

std::ostream &
operator<<(std::ostream &out, const Visit &visit)
{
    return out << "(" << visit.shard << ", " << visit.offset << ")";
}

/**
 * The one fact the serial and pooled walks share: forEachStaged from a
 * plan cursor visits exactly what visitShard visits over the rest of
 * the plan (the first shard entered at the cursor's offset), and both
 * report the same (shard, offset) positions. Checked from every shard
 * boundary and from the middle of the largest shard.
 */
void
expectCursorWalkMatchesShards(const LitmusTest &test)
{
    const CandidateEnumerator enumerator(test);
    const std::vector<CandidateEnumerator::Shard> shards =
        enumerator.planShards();
    auto record = [](std::vector<Visit> &into) {
        return [&into](CandidateExecution &cand,
                       const CandidateEnumerator::StagedInfo &info) {
            into.push_back({info.shard, info.offset, info.comboIndex,
                            info.coherent,
                            cand.rf.toString() + cand.co.toString() +
                                cand.interruptWitness.toString()});
            return true;
        };
    };

    std::vector<CandidateEnumerator::Cursor> cursors;
    std::size_t largest = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        cursors.push_back({s, 0});
        if (shards[s].end - shards[s].begin >
                shards[largest].end - shards[largest].begin)
            largest = s;
    }
    if (!shards.empty()) {
        const std::uint64_t size =
            shards[largest].end - shards[largest].begin;
        if (size > 1)
            cursors.push_back({largest, size / 2});
    }

    for (const CandidateEnumerator::Cursor &cursor : cursors) {
        std::vector<Visit> staged;
        enumerator.forEachStaged(record(staged), nullptr, cursor);
        std::vector<Visit> sharded;
        for (std::size_t s = cursor.shard; s < shards.size(); ++s) {
            CandidateEnumerator::Shard shard = shards[s];
            if (s == cursor.shard)
                shard.begin += cursor.offset;
            enumerator.visitShard(shard, record(sharded));
        }
        ASSERT_FALSE(staged.empty()) << test.name;
        EXPECT_EQ(staged.front().shard, cursor.shard) << test.name;
        EXPECT_EQ(staged.front().offset, cursor.offset) << test.name;
        EXPECT_EQ(staged, sharded)
            << test.name << " from " << cursor.shard << ":"
            << cursor.offset;
    }
}

TEST(StagedParity, CursorWalkMatchesTheShardsFromTheSameCursor)
{
    for (const LitmusTest *test : TestRegistry::instance().all())
        expectCursorWalkMatchesShards(*test);

    // No builtin has a combination wider than one shard; this rexgen
    // test does, so cursors also land on a later shard of a
    // combination.
    const LitmusTest wide =
        parseLitmus(gen::generate(2089, gen::GenConfig{}).source);
    const std::vector<CandidateEnumerator::Shard> shards =
        CandidateEnumerator(wide).planShards();
    bool spans = false;
    for (std::size_t s = 1; s < shards.size(); ++s)
        spans = spans || shards[s].combo == shards[s - 1].combo;
    ASSERT_TRUE(spans) << "random seed 2089 no longer has a combination "
                          "wider than one shard";
    expectCursorWalkMatchesShards(wide);
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

TEST(StagedParity, PooledCeilingTripsMatchSerial)
{
    // A candidate ceiling admits the first maxCandidates candidates in
    // enumeration order on any schedule: the pooled walk cuts its plan
    // at the ceiling instead of letting its shards race for one count.
    // Repeated, because a race would show up as a run-to-run change.
    engine::ThreadPool pool(4);
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const LitmusTest *test : TestRegistry::instance().all()) {
            for (const ModelParams &params : ModelParams::paperVariants()) {
                for (const bool stop : {true, false}) {
                    for (const std::uint64_t ceiling : {1u, 3u, 40u}) {
                        engine::Budget budget;
                        budget.maxCandidates = ceiling;
                        engine::Governor serialGovernor(budget);
                        engine::Governor pooledGovernor(budget);
                        expectSameResult(
                            checkTest(*test, params, stop, true, nullptr,
                                      &serialGovernor),
                            checkTest(*test, params, stop, true, &pool,
                                      &pooledGovernor),
                            test->name + " / " + params.name() +
                                (stop ? " stop" : " full") +
                                " ceiling " + std::to_string(ceiling) +
                                " repeat " + std::to_string(repeat));
                    }
                }
            }
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
