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
#include <set>
#include <span>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "axiomatic/model.hh"
#include "base/strings.hh"
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

/** Outcome key of a candidate execution in the machine's format. */
std::string
axiomaticOutcomeKey(const LitmusTest &test, const CandidateExecution &cand)
{
    std::map<std::string, std::uint64_t> values;
    for (const CondAtom &atom : test.finalCond.atoms) {
        if (atom.kind != CondAtom::Kind::Register)
            continue;
        values[std::to_string(atom.tid) + ":" + isa::regName(atom.reg)] =
            cand.finalRegs[static_cast<std::size_t>(atom.tid)][atom.reg];
    }
    for (LocationId loc = 0; loc < test.locations.size(); ++loc)
        values["*" + test.locations[loc]] = cand.finalMemValue(loc);
    std::string out;
    for (const auto &[name, value] : values)
        out += name + "=" + std::to_string(value) + ";";
    return out;
}

/** All axiomatically-allowed outcome keys of a test. */
std::set<std::string>
allowedOutcomes(const LitmusTest &test, const ModelParams &params)
{
    std::set<std::string> keys;
    CandidateEnumerator enumerator(test);
    enumerator.forEach([&](CandidateExecution &cand) {
        if (checkConsistent(cand, params).consistent)
            keys.insert(axiomaticOutcomeKey(test, cand));
        return true;
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
// The checked-in table was recorded from the machine before its state
// key was made compact. A merged or split state, or a changed DFS order
// under truncation, shows up here.
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
