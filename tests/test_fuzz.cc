/**
 * @file
 * Differential fuzzing over the src/gen synthesizer: generate litmus
 * tests (threads of loads, stores, barriers, dependency chains,
 * acquire/release pairs, exclusive RMWs, LDP/STP pairs, and
 * SVC/interrupt handler splices), then check that the compiled shipped
 * model agrees with the cat interpreter on every candidate, and that
 * every outcome the operational simulator can reach is allowed by the
 * axiomatic model. The corpus is the same one the soundness hammer
 * (src/gen/hammer.hh) drives at campaign scale; here a small slice runs
 * in-tree so `ctest` exercises the whole pipeline on every build.
 *
 * The corpus fans out over the batch engine (REX_JOBS workers, default
 * hardware concurrency): each seed is one pool job returning a failure
 * description (empty = pass), and all assertions run on the main thread
 * over the collected results, so the corpus is embarrassingly parallel
 * without sharing gtest state across threads.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "axiomatic/enumerate.hh"
#include "cat/catmodel.hh"
#include "catc/compile.hh"
#include "catc/exec.hh"
#include "engine/batch.hh"
#include "gen/cycle.hh"
#include "gen/generator.hh"
#include "gen/hammer.hh"
#include "litmus/parser.hh"
#include "operational/explorer.hh"

namespace rex {
namespace {

LitmusTest
generateTest(std::uint64_t seed)
{
    return parseLitmus(gen::generate(seed, gen::GenConfig{}).source);
}

/** What one cat-agreement job found. */
struct Agreement {
    /** "" when the two agree on every candidate compared. */
    std::string failure;
    /** Candidates both reject with `external`, whose cycles were
     *  compared. */
    std::size_t externalCycles = 0;
};

/** Compare the compiled model with the cat interpreter under @p params
 *  on the first 400 candidates of @p test. */
Agreement
catAgreementJob(const LitmusTest &test, const ModelParams &params)
{
    const cat::CatModel &model = cat::CatModel::shipped();
    const catc::Program program = catc::compileNative(params, true);
    CandidateEnumerator enumerator(test);
    std::size_t checked = 0;
    Agreement out;
    std::string &failure = out.failure;
    enumerator.forEach([&](CandidateExecution &cand) {
        const ModelResult compiled =
            catc::FoldedProgram(program, cand).runAttributed(cand);
        const ModelResult interpreted = model.check(cand, params);
        if (compiled.consistent != interpreted.consistent ||
                compiled.failedAxiom != interpreted.failedAxiom ||
                compiled.cycle != interpreted.cycle) {
            failure = test.name + " under " + params.name() +
                ": compiled " +
                (compiled.consistent ? "consistent"
                                     : "fails " + compiled.failedAxiom) +
                " but cat " +
                (interpreted.consistent ? "consistent"
                                        : "fails " + interpreted.failedAxiom);
            if (compiled.consistent == interpreted.consistent &&
                    compiled.failedAxiom == interpreted.failedAxiom)
                failure += " (cycles differ)";
            return false;
        }
        if (compiled.failedAxiom == "external")
            ++out.externalCycles;
        return ++checked < 400;
    });
    if (failure.empty() && checked == 0)
        failure = test.name + ": no candidates enumerated";
    return out;
}

/** One soundness job: "" on success/skip, else a failure description.
 *  Delegates to the hammer's per-seed check — the same code path the
 *  campaign CLI runs. */
std::string
soundnessJob(std::uint64_t seed, std::size_t &skipped)
{
    gen::HammerConfig config;
    gen::SeedResult result =
        gen::soundnessCheck(gen::generate(seed, config.gen), config);
    if (result.outcome == gen::SeedOutcome::Skipped) {
        ++skipped;
        return "";
    }
    if (result.outcome == gen::SeedOutcome::Violation) {
        std::string failure = "gen-" + std::to_string(seed) +
            ": operationally reachable but axiomatically forbidden:";
        for (const std::string &key : result.violating)
            failure += " " + key;
        return failure;
    }
    return "";
}

/** Differential fuzzing of the compiled model: the compiled shipped
 *  Figure 9 model must agree with the cat interpreter (verdict, failed
 *  axiom and cycle) on random programs and the cycle inventory, not
 *  just the curated library, under base and under SEA_R. The random
 *  seeds alone under base reach no `external` failure, so the cycle
 *  comparison needs the inventory and SEA_R's stronger ordering. */
TEST(FuzzCatAgreement, CompiledAgreesWithCatOnRandomPrograms)
{
    // Force the shipped model's lazy load before fanning out.
    cat::CatModel::shipped();
    std::vector<LitmusTest> corpus;
    for (std::uint64_t seed = 1; seed <= 60; ++seed)
        corpus.push_back(generateTest(seed));
    for (const gen::Cycle &cycle : gen::enumerateCycles(gen::CycleConfig{}))
        corpus.push_back(parseLitmus(gen::synthesizeCycle(cycle).source));
    const ModelParams variants[] = {ModelParams::base(),
                                    ModelParams::byName("SEA_R")};
    engine::Engine engine{engine::EngineConfig{}};
    std::vector<Agreement> agreements =
        engine.map(2 * corpus.size(), [&](std::size_t i) {
            return catAgreementJob(corpus[i % corpus.size()],
                                   variants[i / corpus.size()]);
        });
    std::size_t external_cycles = 0;
    for (const Agreement &agreement : agreements) {
        EXPECT_EQ(agreement.failure, "");
        external_cycles += agreement.externalCycles;
    }
    // The corpus must compare cycles, or the cycle check is vacuous.
    EXPECT_GT(external_cycles, 0u);
}

TEST(FuzzSoundness, OperationalWithinAxiomatic)
{
    engine::Engine engine{engine::EngineConfig{}};
    std::vector<std::size_t> skips(400, 0);
    std::vector<std::string> failures =
        engine.map(400, [&skips](std::size_t i) {
            return soundnessJob((i + 1) * 2654435761u, skips[i]);
        });
    std::size_t skipped = 0;
    for (std::size_t s : skips)
        skipped += s;
    for (const std::string &failure : failures)
        EXPECT_EQ(failure, "");
    // The corpus must overwhelmingly run, not skip.
    EXPECT_LT(skipped, 40u);
}

} // namespace
} // namespace rex
