/**
 * @file
 * Operational-simulator tests.
 *
 * The central property is *soundness*: every outcome the simulated
 * hardware can reach (exhaustive exploration) must be allowed by the
 * axiomatic model — the operational machine plays the role of the
 * paper's test devices, and hardware must be weaker than architecture.
 *
 * Additional tests pin the per-profile observability shape of the
 * paper's figures (e.g. MP+dmb.sy+svc is observable only on the
 * A73-like profile, §3.2.2) and basic machine behaviour.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <set>
#include <span>
#include <unordered_set>

#include "axiomatic/checker.hh"
#include "base/logging.hh"
#include "base/strings.hh"
#include "gen/cycle.hh"
#include "gen/generator.hh"
#include "gen/hammer.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "operational/explorer.hh"
#include "operational/runner.hh"

namespace rex {
namespace {

using op::CoreProfile;
using op::explore;
using op::ExploreResult;
using op::Runner;
using op::RunStats;

/** All axiomatically-allowed outcome keys of a test, in the machine's
 *  format. */
std::set<std::string>
allowedOutcomes(const LitmusTest &test, const ModelParams &params)
{
    const FinalState final_state(test);
    std::set<std::string> keys;
    std::string key;
    forEachConsistent(test, params, [&](const CandidateExecution &cand) {
        final_state.key(cand, key);
        keys.insert(key);
    });
    return keys;
}

// ---------------------------------------------------------------------
// Soundness: operational ⊆ axiomatic, per test, on the most relaxed
// profile (which subsumes the others' reorderings).
// ---------------------------------------------------------------------

class OperationalSoundness
    : public ::testing::TestWithParam<const LitmusTest *>
{};

TEST_P(OperationalSoundness, OutcomesAreAxiomaticallyAllowed)
{
    const LitmusTest &test = *GetParam();
    ExploreResult explored =
        explore(test, CoreProfile::maxRelaxed(), 400000);
    std::set<std::string> allowed =
        allowedOutcomes(test, ModelParams::base());
    for (const std::string &outcome : explored.outcomes) {
        EXPECT_TRUE(allowed.count(outcome))
            << test.name << ": operational outcome " << outcome
            << " is not axiomatically allowed";
    }
    EXPECT_FALSE(explored.outcomes.empty());
}

std::vector<const LitmusTest *>
soundnessTests()
{
    // Exhaustive exploration over every built-in test; the largest GIC
    // tests are capped by the state bound inside the fixture.
    return TestRegistry::instance().all();
}

std::string
soundnessName(const ::testing::TestParamInfo<const LitmusTest *> &info)
{
    std::string name = info.param->name;
    for (char &ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllTests, OperationalSoundness,
                         ::testing::ValuesIn(soundnessTests()),
                         soundnessName);

// ---------------------------------------------------------------------
// Observability shape (the hw-refs columns of the figures).
// ---------------------------------------------------------------------

bool
observableOn(const std::string &test_name, const CoreProfile &profile)
{
    const LitmusTest &test = TestRegistry::instance().get(test_name);
    return explore(test, profile, 400000).conditionReachable;
}

TEST(HwShape, StoreBufferingAcrossEretObservedEverywhere)
{
    // Fig. 4: observed on all four devices.
    for (const CoreProfile &profile : CoreProfile::paperDevices())
        EXPECT_TRUE(observableOn("SB+dmb.sy+eret", profile))
            << profile.name;
}

TEST(HwShape, ForwardingIntoHandlerObservedEverywhere)
{
    // Fig. 6: observed on all four devices.
    for (const CoreProfile &profile : CoreProfile::paperDevices())
        EXPECT_TRUE(observableOn("SB+dmb.sy+rfisvc-addr", profile))
            << profile.name;
}

TEST(HwShape, LoadLoadReorderAcrossSvcOnlyOnA73)
{
    // §3.2.2: MP+dmb.sy+svc observed only on the ODROID's A73 cores.
    EXPECT_FALSE(observableOn("MP+dmb.sy+svc", CoreProfile::cortexA53()));
    EXPECT_FALSE(observableOn("MP+dmb.sy+svc", CoreProfile::cortexA72()));
    EXPECT_FALSE(observableOn("MP+dmb.sy+svc", CoreProfile::cortexA76()));
    EXPECT_TRUE(observableOn("MP+dmb.sy+svc", CoreProfile::cortexA73()));
}

TEST(HwShape, ForbiddenShapesNeverObserved)
{
    // The figures' forbidden tests: 0 observations on every device.
    for (const char *name : {"MP+dmb.sy+ctrlsvc", "MP+dmb.sy+ctrlelr",
                             "MP+dmb.sy+fault", "MP.EL1+dmb.sy+dataesrsvc",
                             "MPviaSGIEIOmode1sequence", "RCU-MP+dsb.st"}) {
        for (const CoreProfile &profile : CoreProfile::paperDevices())
            EXPECT_FALSE(observableOn(name, profile))
                << name << " on " << profile.name;
    }
}

TEST(HwShape, SequentialProfileSeesNoRelaxedOutcomes)
{
    for (const char *name : {"SB+pos", "MP+pos", "LB+pos"}) {
        EXPECT_FALSE(observableOn(name, CoreProfile::sequential()))
            << name;
    }
}

TEST(HwShape, MpViaSgiRace)
{
    // Fig. 12 allowed (no sync) vs forbidden with the DSB ST.
    EXPECT_TRUE(observableOn("MPviaSGI", CoreProfile::maxRelaxed()));
    EXPECT_FALSE(
        observableOn("MPviaSGI+dsb.st", CoreProfile::maxRelaxed()));
}

// ---------------------------------------------------------------------
// Completeness on classic shapes: the max-relaxed profile reaches every
// axiomatically-allowed outcome of the store-buffer/reorder shapes (it
// cannot speculate branches, so this only holds for speculation-free
// tests).
// ---------------------------------------------------------------------

TEST(OperationalCompleteness, ClassicShapesReachAllAllowedOutcomes)
{
    for (const char *name :
            {"SB+pos", "MP+pos", "LB+pos", "2+2W+pos", "SB+dmb.sys",
             "MP+dmb.sys", "SB+dmb.sy+eret", "WRC+pos"}) {
        const LitmusTest &test = TestRegistry::instance().get(name);
        ExploreResult explored =
            explore(test, CoreProfile::maxRelaxed(), 400000);
        ASSERT_FALSE(explored.truncated) << name;
        std::set<std::string> allowed =
            allowedOutcomes(test, ModelParams::base());
        EXPECT_EQ(explored.outcomes, allowed) << name;
    }
}

// ---------------------------------------------------------------------
// Differential oracle: op::explore expands a persistent set of the
// enabled transitions (Machine::persistentSet()). A plain depth-first
// walk over every enabled transition, written against the Machine's
// public API only, must reach the same outcomes and condition with at
// least as many states.
// ---------------------------------------------------------------------

/** Explore the full state graph of @p test on @p profile: every
 *  enabled transition of every state, memoised on the concatenated
 *  segment keys. */
ExploreResult
exploreUnreduced(const LitmusTest &test, const CoreProfile &profile,
                 std::size_t max_states)
{
    ExploreResult result;
    std::unordered_set<std::string> seen;
    std::string segment;
    auto stateKey = [&segment](const op::Machine &machine) {
        std::string key;
        for (std::size_t s = 0; s < machine.numSegments(); ++s) {
            machine.segmentKey(s, segment);
            key += std::to_string(segment.size()) + ":" + segment;
        }
        return key;
    };
    std::vector<op::Machine> stack{op::Machine(test, profile)};
    seen.insert(stateKey(stack.back()));
    std::vector<op::Machine::Transition> transitions;
    std::string outcome;
    while (!stack.empty()) {
        const op::Machine state = std::move(stack.back());
        stack.pop_back();
        if (state.done()) {
            state.outcomeKey(outcome);
            if (result.outcomes.insert(outcome).second &&
                    state.conditionHolds()) {
                result.conditionReachable = true;
            }
            continue;
        }
        state.enabled(transitions);
        for (const op::Machine::Transition &transition : transitions) {
            op::Machine next = state;
            next.apply(transition);
            std::string key = stateKey(next);
            if (seen.size() >= max_states && !seen.count(key)) {
                result.truncated = true;
                result.statesVisited = seen.size();
                return result;
            }
            if (seen.insert(std::move(key)).second)
                stack.push_back(std::move(next));
        }
    }
    result.statesVisited = seen.size();
    return result;
}

/** The state cap of every differential comparison; no input below
 *  reaches it on the full graph. */
constexpr std::size_t kDifferentialCap = 400000;

/** Expect op::explore and the full graph to agree on @p test. */
void
expectSameAsUnreduced(const LitmusTest &test, const CoreProfile &profile,
                      const std::string &what)
{
    const ExploreResult full =
        exploreUnreduced(test, profile, kDifferentialCap);
    const ExploreResult reduced = explore(test, profile, kDifferentialCap);
    EXPECT_FALSE(full.truncated) << what << " on " << profile.name;
    EXPECT_FALSE(reduced.truncated) << what << " on " << profile.name;
    EXPECT_EQ(reduced.outcomes, full.outcomes)
        << what << " on " << profile.name;
    EXPECT_EQ(reduced.conditionReachable, full.conditionReachable)
        << what << " on " << profile.name;
    EXPECT_LE(reduced.statesVisited, full.statesVisited)
        << what << " on " << profile.name;
}

/** The paper devices, maxRelaxed, sequential (a window of one), and
 *  bench_ablation_profiles' single knobs over the in-order core. */
std::vector<CoreProfile>
differentialProfiles()
{
    std::vector<CoreProfile> profiles = CoreProfile::paperDevices();
    profiles.push_back(CoreProfile::maxRelaxed());
    profiles.push_back(CoreProfile::sequential());
    const CoreProfile base = CoreProfile::cortexA53();
    CoreProfile knob = base;
    knob.name = "+load-load";
    knob.loadLoadReorder = true;
    profiles.push_back(knob);
    knob = base;
    knob.name = "+store-store";
    knob.storeStoreReorder = true;
    profiles.push_back(knob);
    knob = base;
    knob.name = "+load-store";
    knob.loadStoreReorder = true;
    profiles.push_back(knob);
    knob = base;
    knob.name = "-forwarding";
    knob.forwarding = false;
    profiles.push_back(knob);
    return profiles;
}

TEST(ExploreDifferential, BuiltinsOnEveryProfile)
{
    for (const CoreProfile &profile : differentialProfiles()) {
        for (const LitmusTest *test : TestRegistry::instance().all())
            expectSameAsUnreduced(*test, profile, test->name);
    }
}

TEST(ExploreDifferential, GeneratedSeeds)
{
    const gen::HammerConfig config;
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
        expectSameAsUnreduced(
            parseLitmus(gen::generate(seed, config.gen).source),
            CoreProfile::maxRelaxed(), "seed " + std::to_string(seed));
    }
}

TEST(ExploreDifferential, CycleInventory)
{
    const std::vector<gen::Cycle> inventory =
        gen::enumerateCycles(gen::CycleConfig{});
    ASSERT_FALSE(inventory.empty());
    for (const gen::Cycle &cycle : inventory) {
        expectSameAsUnreduced(
            parseLitmus(gen::synthesizeCycle(cycle).source),
            CoreProfile::maxRelaxed(), gen::cycleName(cycle));
    }
}

TEST(ExploreDifferential, RunnerOutcomesAreExplored)
{
    // The random runner schedules over every enabled transition, so
    // whatever it reaches lies in the full graph and must be explored.
    // Every non-final state has an enabled transition, so no batch
    // aborts and every (profile, builtin) pair is compared.
    std::vector<CoreProfile> profiles = CoreProfile::paperDevices();
    profiles.push_back(CoreProfile::maxRelaxed());
    std::size_t compared = 0;
    for (const CoreProfile &profile : profiles) {
        for (const LitmusTest *test : TestRegistry::instance().all()) {
            const RunStats stats = Runner(profile, 5).run(*test, 50);
            const ExploreResult explored =
                explore(*test, profile, kDifferentialCap);
            ASSERT_FALSE(explored.truncated) << test->name;
            for (const auto &[outcome, count] : stats.histogram) {
                EXPECT_TRUE(explored.outcomes.count(outcome))
                    << test->name << " on " << profile.name << ": runner "
                    << "outcome " << outcome << " not explored";
            }
            ++compared;
        }
    }
    // 5 profiles x 102 builtins: 510 batches.
    EXPECT_EQ(compared,
              profiles.size() * TestRegistry::instance().all().size());
}

// ---------------------------------------------------------------------
// Randomised runner.
// ---------------------------------------------------------------------

TEST(RunnerTest, DeterministicGivenSeed)
{
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    Runner r1(CoreProfile::cortexA72(), 7);
    Runner r2(CoreProfile::cortexA72(), 7);
    RunStats s1 = r1.run(test, 500);
    RunStats s2 = r2.run(test, 500);
    EXPECT_EQ(s1.observed, s2.observed);
    EXPECT_EQ(s1.histogram, s2.histogram);
}

TEST(RunnerTest, ObservesStoreBuffering)
{
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    Runner runner(CoreProfile::cortexA53(), 1);
    RunStats stats = runner.run(test, 2000);
    EXPECT_GT(stats.observed, 0u);
    EXPECT_LT(stats.observed, stats.runs);
}

TEST(RunnerTest, NeverObservesForbidden)
{
    const LitmusTest &test =
        TestRegistry::instance().get("MP+dmb.sys");
    Runner runner(CoreProfile::maxRelaxed(), 3);
    RunStats stats = runner.run(test, 2000);
    EXPECT_EQ(stats.observed, 0u);
}

// ---------------------------------------------------------------------
// Golden exploration table: state counts, truncation and outcome sets.
// The outcome columns were first recorded from the machine before its
// state key was made compact and have been kept byte-identical since;
// the state counts are those of the explored graph, in which
// op::explore expands one Issue where that is enough. A merged or split
// state, or a changed DFS order under truncation, shows up here.
// ---------------------------------------------------------------------

struct GoldenBuiltin {
    const char *test;
    const char *profile;
    std::size_t states;
    bool truncated;
    bool conditionReachable;
    std::size_t outcomes;
    std::uint64_t outcomeHash;
};

struct GoldenSeed {
    std::uint64_t seed;
    std::size_t states;
    bool truncated;
    bool conditionReachable;
    std::size_t outcomes;
    std::uint64_t outcomeHash;
};

#include "explore_golden.inc"

constexpr std::size_t kGoldenCap = 400000;
constexpr std::size_t kGoldenTruncatedCap = 100;

/** FNV-1a over the outcome keys in set order, each ended by 0xFF. */
std::uint64_t
outcomeSetHash(const std::set<std::string> &outcomes)
{
    std::uint64_t h = 1469598103934665603ull;
    auto byte = [&h](unsigned char c) {
        h ^= c;
        h *= 1099511628211ull;
    };
    for (const std::string &key : outcomes) {
        for (char c : key)
            byte(static_cast<unsigned char>(c));
        byte(0xFF);
    }
    return h;
}

/** The row fields after the test or seed, as they appear in the table. */
std::string
rowFields(const ExploreResult &r)
{
    return format("%zu, %d, %d, %zu, 0x%016llx", r.statesVisited,
                  r.truncated ? 1 : 0, r.conditionReachable ? 1 : 0,
                  r.outcomes.size(),
                  static_cast<unsigned long long>(
                      outcomeSetHash(r.outcomes)));
}

template <typename Row>
std::string
rowFields(const Row &row)
{
    return format("%zu, %d, %d, %zu, 0x%016llx", row.states,
                  row.truncated ? 1 : 0, row.conditionReachable ? 1 : 0,
                  row.outcomes,
                  static_cast<unsigned long long>(row.outcomeHash));
}

/** Explore rexgen random seed @p seed as the hammer does. */
ExploreResult
exploreGenerated(std::uint64_t seed)
{
    const gen::HammerConfig config;
    return explore(parseLitmus(gen::generate(seed, config.gen).source),
                   CoreProfile::maxRelaxed(), config.maxStates);
}

void
expectBuiltinRows(std::span<const GoldenBuiltin> rows, std::size_t cap)
{
    for (const GoldenBuiltin &row : rows) {
        ExploreResult r = explore(TestRegistry::instance().get(row.test),
                                  CoreProfile::byName(row.profile), cap);
        EXPECT_EQ(rowFields(r), rowFields(row))
            << row.test << " on " << row.profile << " at cap " << cap;
    }
}

TEST(GoldenExplore, BuiltinsOnEveryProfile)
{
    // Every builtin on each paper device and maxRelaxed.
    EXPECT_EQ(std::size(kGoldenBuiltins),
              TestRegistry::instance().all().size() *
                  (CoreProfile::paperDevices().size() + 1));
    expectBuiltinRows(kGoldenBuiltins, kGoldenCap);
}

TEST(GoldenExplore, TruncatedBuiltins)
{
    EXPECT_EQ(std::size(kGoldenTruncated),
              TestRegistry::instance().all().size());
    expectBuiltinRows(kGoldenTruncated, kGoldenTruncatedCap);
}

TEST(GoldenExplore, GeneratedSeeds)
{
    for (const GoldenSeed &row : kGoldenSeeds) {
        EXPECT_EQ(rowFields(exploreGenerated(row.seed)), rowFields(row))
            << "seed " << row.seed;
    }
}

/** Print explore_golden.inc for the current machine. */
TEST(GoldenExplore, RejectsCapBeyondThirtyTwoBitIds)
{
    // State and segment ids are 32-bit: a larger cap could wrap one and
    // merge two distinct states.
    const LitmusTest &test = TestRegistry::instance().get("CoWW");
    const std::size_t max_ids = std::numeric_limits<std::uint32_t>::max();
    EXPECT_THROW(explore(test, CoreProfile::maxRelaxed(), max_ids + 1),
                 FatalError);
    EXPECT_EQ(explore(test, CoreProfile::maxRelaxed(), max_ids)
                  .statesVisited, 8u);
}

TEST(GoldenExplore, DISABLED_PrintTable)
{
    auto line = [](const std::string &head, const std::string &fields) {
        std::string row = "    {" + head + ", " + fields + "},";
        if (row.size() > 80)
            row = "    {" + head + ",\n     " + fields + "},";
        std::printf("%s\n", row.c_str());
    };
    auto builtins = [&](const std::vector<CoreProfile> &profiles,
                        std::size_t cap) {
        for (const LitmusTest *test : TestRegistry::instance().all()) {
            for (const CoreProfile &profile : profiles) {
                line("\"" + test->name + "\", \"" + profile.name + "\"",
                     rowFields(explore(*test, profile, cap)));
            }
        }
    };
    std::vector<CoreProfile> profiles = CoreProfile::paperDevices();
    profiles.push_back(CoreProfile::maxRelaxed());

    std::printf(
        "// Golden op::explore results, written by "
        "GoldenExplore.DISABLED_PrintTable\n"
        "// in test_operational.cc. Regenerate only after a deliberate "
        "change to\n"
        "// the machine's semantics.\n"
        "// Rows hold {test or seed, [profile,] statesVisited, truncated,\n"
        "// conditionReachable, outcome count, outcome-set hash}.\n"
        "\n"
        "// Every builtin on the four paper devices and maxRelaxed, "
        "cap %zu.\n"
        "const GoldenBuiltin kGoldenBuiltins[] = {\n", kGoldenCap);
    builtins(profiles, kGoldenCap);
    std::printf(
        "};\n"
        "\n"
        "// Every builtin on maxRelaxed at cap %zu: pins the DFS order "
        "that\n"
        "// decides which outcomes a truncated exploration has reached.\n"
        "const GoldenBuiltin kGoldenTruncated[] = {\n",
        kGoldenTruncatedCap);
    builtins({CoreProfile::maxRelaxed()}, kGoldenTruncatedCap);
    std::printf(
        "};\n"
        "\n"
        "// rexgen random seeds 0-199 on maxRelaxed at the hammer's state "
        "cap.\n"
        "const GoldenSeed kGoldenSeeds[] = {\n");
    for (std::uint64_t seed = 0; seed < 200; ++seed)
        line(std::to_string(seed), rowFields(exploreGenerated(seed)));
    std::printf("};\n");
}

} // namespace
} // namespace rex
