/**
 * @file
 * The per-layer benchmark ledger (google-benchmark): relation closure,
 * candidate enumeration, the compiled checkTest (stop-at-first, full
 * and sharded), the compiled per-candidate sweep, the cat interpreter,
 * and the operational simulator and explorer. Apart from the cat
 * interpreter, the harness cross-check's independent oracle, every
 * benchmark times a path production runs. End-to-end workloads live
 * in e2ebench.
 *
 * Record and compare with repetitions, so each side carries a median
 * and a coefficient of variation:
 *
 *   build/bench/bench_perf_core --benchmark_repetitions=10 \
 *       --benchmark_report_aggregates_only=true \
 *       --benchmark_format=json > new.json
 *   python3 scripts/compare_bench.py bench/perf_core_baseline.json new.json
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "catc/cache.hh"
#include "catc/exec.hh"
#include "gen/generator.hh"
#include "gen/hammer.hh"
#include "rex/rex.hh"

namespace {

using namespace rex;

void
BM_RelationClosure(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    Relation r(n);
    std::uint64_t s = 12345;
    for (EventId a = 0; a < n; ++a) {
        for (EventId b = 0; b < n; ++b) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if (s % 5 == 0)
                r.add(a, b);
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(r.transitiveClosure());
}
BENCHMARK(BM_RelationClosure)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void
BM_CandidateEnumeration(benchmark::State &state)
{
    const LitmusTest &test =
        TestRegistry::instance().get("SB+dmb.sy+eret");
    for (auto _ : state) {
        CandidateEnumerator enumerator(test);
        benchmark::DoNotOptimize(enumerator.count());
    }
}
BENCHMARK(BM_CandidateEnumeration);

void
BM_Check(benchmark::State &state)
{
    const LitmusTest &test =
        TestRegistry::instance().get("MP.EL1+dmb.sy+dataesrsvc");
    for (auto _ : state)
        benchmark::DoNotOptimize(
            checkTest(test, ModelParams::base(), true).observable);
}
BENCHMARK(BM_Check);

void
BM_CheckFull(benchmark::State &state)
{
    const LitmusTest &test =
        TestRegistry::instance().get("MP.EL1+dmb.sy+dataesrsvc");
    // No early exit: visits and checks every candidate.
    for (auto _ : state)
        benchmark::DoNotOptimize(
            checkTest(test, ModelParams::base(), false).candidates);
}
BENCHMARK(BM_CheckFull);

void
BM_CheckSharded(benchmark::State &state)
{
    const LitmusTest &test =
        TestRegistry::instance().get("MP.EL1+dmb.sy+dataesrsvc");
    // Same check distributed over a worker pool; results are merged in
    // deterministic order, so the verdict is identical to the serial
    // path (the interesting number is the coordination overhead on a
    // combination space this small).
    engine::ThreadPool pool(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            checkTest(test, ModelParams::base(), false, true, &pool)
                .candidates);
}
BENCHMARK(BM_CheckSharded);

void
BM_CatModelCheck(benchmark::State &state)
{
    const LitmusTest &test =
        TestRegistry::instance().get("MP.EL1+dmb.sy+dataesrsvc");
    const cat::CatModel &model = cat::CatModel::shipped();
    // Pre-enumerate candidates once; measure interpretation only.
    std::vector<CandidateExecution> candidates;
    CandidateEnumerator enumerator(test);
    enumerator.forEach([&](CandidateExecution &cand) {
        candidates.push_back(cand);
        return true;
    });
    for (auto _ : state) {
        for (const CandidateExecution &cand : candidates) {
            benchmark::DoNotOptimize(
                model.check(cand, ModelParams::base()).consistent);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() *
                                  candidates.size()));
}
BENCHMARK(BM_CatModelCheck);

/** Coherent staged candidates of @p test (deep copies) with their
 *  combination indices, for per-candidate check benchmarks. */
std::vector<std::pair<CandidateExecution, std::uint64_t>>
stagedCandidates(const LitmusTest &test)
{
    std::vector<std::pair<CandidateExecution, std::uint64_t>> out;
    CandidateEnumerator enumerator(test);
    enumerator.forEachStaged(
        [&](CandidateExecution &cand,
            const CandidateEnumerator::StagedInfo &info) {
            if (info.coherent)
                out.emplace_back(cand, info.comboIndex);
            return true;
        });
    return out;
}

void
BM_CompiledCheckSweep(benchmark::State &state)
{
    const LitmusTest &test =
        TestRegistry::instance().get("MP.EL1+dmb.sy+dataesrsvc");
    const ModelParams params = ModelParams::base();
    const auto candidates = stagedCandidates(test);
    // Compiled once per (variant, revision) — outside the timed loop,
    // exactly like the checker's per-check program fetch.
    const auto program = catc::stagedProgram(params);
    std::optional<catc::FoldedProgram> folded;
    for (auto _ : state) {
        std::uint64_t combo = ~std::uint64_t{0};
        for (const auto &[cand, comboIndex] : candidates) {
            if (!folded) {
                folded.emplace(*program, cand);
                combo = comboIndex;
            } else if (combo != comboIndex) {
                folded->refold(cand);
                combo = comboIndex;
            }
            benchmark::DoNotOptimize(folded->runFast(cand).consistent);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() *
                                  candidates.size()));
}
BENCHMARK(BM_CompiledCheckSweep);

void
BM_OperationalRun(benchmark::State &state)
{
    const LitmusTest &test =
        TestRegistry::instance().get("SB+dmb.sy+eret");
    op::Runner runner(op::CoreProfile::cortexA73(), 99);
    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(test, 100).observed);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 100));
}
BENCHMARK(BM_OperationalRun);

void
BM_OperationalExplore(benchmark::State &state)
{
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            op::explore(test, op::CoreProfile::maxRelaxed())
                .outcomes.size());
    }
}
BENCHMARK(BM_OperationalExplore);

void
BM_OperationalExploreGenerated(benchmark::State &state)
{
    // The hammer's operational side: rexgen random seeds 0-49 explored
    // on maxRelaxed at the hammer's state cap.
    const gen::HammerConfig config;
    std::vector<LitmusTest> tests;
    for (std::uint64_t seed = 0; seed < 50; ++seed)
        tests.push_back(parseLitmus(gen::generate(seed, config.gen).source));
    std::size_t states = 0;
    std::chrono::nanoseconds elapsed{0};
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        states = 0;
        for (const LitmusTest &test : tests) {
            states += op::explore(test, op::CoreProfile::maxRelaxed(),
                                  config.maxStates).statesVisited;
        }
        elapsed += std::chrono::steady_clock::now() - start;
        benchmark::DoNotOptimize(states);
    }
    state.counters["states"] = static_cast<double>(states);
    state.counters["ns_per_state"] =
        static_cast<double>(elapsed.count()) /
        (static_cast<double>(states) *
         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_OperationalExploreGenerated)->Unit(benchmark::kMillisecond);

void
BM_Assembler(benchmark::State &state)
{
    const std::string text =
        "LDR X0,[X1]\nMRS X4,ESR_EL1\nEOR X5,X0,X0\nADD X5,X4,X5\n"
        "MSR ESR_EL1,X5\nSVC #0\n";
    for (auto _ : state)
        benchmark::DoNotOptimize(isa::assemble(text).code.size());
}
BENCHMARK(BM_Assembler);

} // namespace

BENCHMARK_MAIN();
