/**
 * @file
 * suite-matrix: every builtin of the five shipped suites under every
 * paper variant through harness::suiteMatrix, on a one-job engine with
 * the verdict cache off, repeated back to back.
 *
 * Traced, the same cells also run one by one through Engine::verdict
 * (whose verdict is checkTest's stop-at-first one) with a span each,
 * compared cell for cell against the untraced table, and a layer probe
 * drives parseLitmus, CandidateEnumerator and the catc compile / fold /
 * refold / runFast steps on the same tests.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <sstream>

#include "catc/cache.hh"
#include "catc/compile.hh"
#include "catc/exec.hh"
#include "common.hh"
#include "rex/rex.hh"

namespace rexbench {

using namespace rex;

namespace {

const char *const kSuites[] = {"core", "exceptions", "sea", "gic",
                               "generated"};

/** The builtins in a seed-shuffled order (the work is the same for
 *  every order; the table rows follow it). */
std::vector<const LitmusTest *>
suiteTests(std::uint64_t seed)
{
    std::vector<const LitmusTest *> tests;
    for (const char *suite : kSuites) {
        for (const LitmusTest *test : TestRegistry::instance().suite(suite))
            tests.push_back(test);
    }
    std::mt19937_64 rng(seed);
    std::shuffle(tests.begin(), tests.end(), rng);
    return tests;
}

engine::EngineConfig
serialUncachedConfig()
{
    engine::EngineConfig config;
    config.jobs = 1;
    config.cacheEnabled = false;
    return config;
}

/** test name -> the five variant verdict letters, from a rendered
 *  suiteMatrix table. */
std::map<std::string, std::string>
tableVerdicts(const std::string &table)
{
    std::map<std::string, std::string> out;
    std::istringstream lines(table);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::vector<std::string> cols;
        std::string col;
        while (fields >> col)
            cols.push_back(col);
        if (cols.size() != 8 || cols[0] == "test")
            continue;
        out[cols[0]] = cols[2] + cols[3] + cols[4] + cols[5] + cols[6];
    }
    return out;
}

/** Drive the axiomatic and catc layers one call at a time over every
 *  (test, variant) cell, recording a span per call. */
void
probeLayers(const std::vector<const LitmusTest *> &tests, Trace *trace,
            Metrics &layers)
{
    const std::vector<ModelParams> variants = ModelParams::paperVariants();
    const TestRegistry &registry = TestRegistry::instance();

    for (const ModelParams &params : variants) {
        ScopedSpan span(trace, "catc.compile");
        catc::Program program =
            catc::compileNative(params, /*include_internal=*/false);
        span.setCount(program.ops.size());
    }

    std::uint64_t candidates = 0;
    std::uint64_t coherent = 0;
    constexpr std::size_t kMaxProbeCandidates = 4096;
    for (std::size_t t = 0; t < tests.size(); ++t) {
        const std::string &source = registry.sourceText(tests[t]->name);
        std::optional<LitmusTest> parsed;
        {
            ScopedSpan span(trace, "litmus.parse", 0, t);
            parsed.emplace(parseLitmus(source));
        }
        std::optional<CandidateEnumerator> enumerator;
        {
            ScopedSpan span(trace, "axiomatic.traces", 0, t);
            enumerator.emplace(*parsed);
        }

        // Coherent candidates grouped by trace combination: the fold
        // runs once for the first combination, refold for each later
        // one, runFast for every candidate.
        std::vector<std::vector<CandidateExecution>> groups;
        std::uint64_t lastCombo = ~std::uint64_t(0);
        std::size_t kept = 0;
        enumerator->forEachStaged(
            [&](CandidateExecution &cand,
                const CandidateEnumerator::StagedInfo &info) {
                ++candidates;
                if (!info.coherent)
                    return true;
                ++coherent;
                if (info.comboIndex != lastCombo) {
                    groups.emplace_back();
                    lastCombo = info.comboIndex;
                }
                groups.back().push_back(cand);
                return ++kept < kMaxProbeCandidates;
            });

        for (std::size_t v = 0; v < variants.size(); ++v) {
            const ModelParams &params = variants[v];
            std::uint64_t key = t * variants.size() + v;
            if (groups.empty())
                continue;
            std::shared_ptr<const catc::FoldPlan> plan =
                catc::planForCheck(params);
            if (!plan)
                continue;
            std::optional<catc::FoldedProgram> folded;
            for (std::size_t g = 0; g < groups.size(); ++g) {
                if (!folded) {
                    ScopedSpan span(trace, "catc.fold", 0, key);
                    folded.emplace(*plan, groups[g].front());
                } else {
                    ScopedSpan span(trace, "catc.refold", 0, key);
                    folded->refold(groups[g].front());
                }
                ScopedSpan span(trace, "catc.run", 0, key);
                for (const CandidateExecution &cand : groups[g])
                    (void)folded->runFast(cand);
                span.setCount(groups[g].size());
            }
        }
    }

    auto countOf = [&](const char *name) {
        std::uint64_t total = 0;
        for (const Span &span : trace->named(name))
            total += span.count;
        return total;
    };
    auto sumNs = [&](const char *name) {
        double total = 0;
        for (double ns : trace->durations(name))
            total += ns;
        return total;
    };
    layers.add("litmus.parse_us",
               median(trace->durations("litmus.parse")) / 1e3, "us");
    layers.add("axiomatic.traces_us",
               median(trace->durations("axiomatic.traces")) / 1e3, "us");
    layers.add("axiomatic.coherent_ratio",
               candidates ? static_cast<double>(coherent) /
                                static_cast<double>(candidates)
                          : 0,
               "ratio");
    layers.add("catc.compile_us",
               median(trace->durations("catc.compile")) / 1e3, "us");
    layers.add("catc.fold_us", median(trace->durations("catc.fold")) / 1e3,
               "us");
    layers.add("catc.refold_ns", median(trace->durations("catc.refold")),
               "ns");
    std::uint64_t runCandidates = countOf("catc.run");
    layers.add("catc.run_ns_per_candidate",
               runCandidates ? sumNs("catc.run") /
                                   static_cast<double>(runCandidates)
                             : 0,
               "ns");
}

class SuitePhase : public Phase
{
  public:
    explicit SuitePhase(const PhaseContext &ctx)
        : _ctx(ctx), _tests(suiteTests(ctx.options.seed)),
          _variants(ModelParams::paperVariants()),
          _cells(_tests.size() * _variants.size()),
          _engine(serialUncachedConfig())
    {
        // A mismatch fails the run outright, so nothing counts here.
        if (ctx.options.workload == kSuiteMatrix)
            ctx.layers.add("failed_ratio", 0, "ratio");
        // Warm-up pass: compiles the variants' models; its table is the
        // reference every later pass must reproduce.
        _reference = harness::suiteMatrix(_tests, _engine);
        ctx.gates.check(_reference.find("\n0 mismatches out of ") !=
                            std::string::npos,
                        "suite-matrix reports mismatches");
    }

    void
    slice(std::size_t, std::size_t slices) override
    {
        const double budget = _ctx.options.smoke
                                  ? 0
                                  : _ctx.options.seconds * 0.25 /
                                        static_cast<double>(slices);
        Clock::time_point start = Clock::now();
        do {
            Clock::time_point t0 = Clock::now();
            std::string table = harness::suiteMatrix(_tests, _engine);
            _passes.push_back(secondsSince(t0));
            _ctx.gates.check(table == _reference,
                             "suite-matrix pass differs");
        } while (secondsSince(start) < budget);
    }

    void
    finish() override
    {
        _ctx.gates.attempted += _cells * _passes.size();
        // The pass time at the 10th percentile: co-tenants of a shared
        // host slow a single-threaded, allocation-heavy pass by up to
        // half for seconds at a time, and the low quantile is the speed
        // the code reaches whenever they leave the core alone.
        const double passSeconds = quantile(_passes, 0.1);
        _ctx.e2e.add("verdicts_per_s",
                     static_cast<double>(_cells) / passSeconds, "1/s");
        std::fprintf(stderr,
                     "suite-matrix: %zu passes of %zu cells, p10 %.3f ms, "
                     "median %.3f ms\n",
                     _passes.size(), _cells, passSeconds * 1e3,
                     median(_passes) * 1e3);
        if (_ctx.trace)
            traced(passSeconds);
    }

  private:
    /** The same cells through Engine::verdict, one span per cell; the
     *  verdicts must equal the untraced table's. */
    void
    traced(double passSeconds)
    {
        Trace *trace = _ctx.trace;
        const std::map<std::string, std::string> expected =
            tableVerdicts(_reference);
        const std::size_t variants = _variants.size();
        std::vector<double> tracedPasses;
        std::uint64_t candidates = 0;
        for (std::size_t pass = 0; pass < _passes.size(); ++pass) {
            Clock::time_point t0 = Clock::now();
            ScopedSpan passSpan(trace, "harness.suite_pass", 0, pass);
            std::vector<CheckResult> results =
                _engine.map(_cells, [&](std::size_t i) {
                    ScopedSpan span(trace, "axiomatic.verdict",
                                    passSpan.id(), i);
                    CheckResult result = _engine.verdict(
                        *_tests[i / variants], _variants[i % variants]);
                    span.setCount(result.candidates);
                    return result;
                });
            tracedPasses.push_back(secondsSince(t0));
            for (std::size_t t = 0; t < _tests.size(); ++t) {
                std::string letters;
                for (std::size_t v = 0; v < variants; ++v) {
                    const CheckResult &result = results[t * variants + v];
                    letters += result.observable ? "A" : "F";
                    if (pass == 0)
                        candidates += result.candidates;
                }
                auto found = expected.find(_tests[t]->name);
                _ctx.gates.check(found != expected.end() &&
                                     found->second == letters,
                                 "traced verdicts differ from the untraced "
                                 "table for " + _tests[t]->name);
            }
        }

        std::vector<double> verdictUs;
        for (double ns : trace->durations("axiomatic.verdict"))
            verdictUs.push_back(ns / 1e3);
        Metrics &layers = _ctx.layers;
        layers.add("axiomatic.verdict_us_p50", quantile(verdictUs, 0.5),
                   "us");
        layers.add("axiomatic.verdict_us_p99", quantile(verdictUs, 0.99),
                   "us");
        layers.add("axiomatic.candidates_per_verdict",
                   static_cast<double>(candidates) /
                       static_cast<double>(_cells),
                   "count");
        const double passes = static_cast<double>(_passes.size());
        trace->noteOverhead(passSeconds * passes,
                            quantile(tracedPasses, 0.1) * passes);

        probeLayers(_tests, trace, layers);
    }

    PhaseContext _ctx;
    std::vector<const LitmusTest *> _tests;
    std::vector<ModelParams> _variants;
    std::size_t _cells;
    engine::Engine _engine;
    std::string _reference;
    std::vector<double> _passes;
};

} // namespace

std::unique_ptr<Phase>
makeSuitePhase(const PhaseContext &ctx)
{
    return std::make_unique<SuitePhase>(ctx);
}

int
suiteSetupProbe(bool rss)
{
    // Process start (the parent times from spawn) through registry
    // parse, engine start and model compile to the first matrix row.
    std::vector<const LitmusTest *> tests = suiteTests(0);
    engine::Engine engine(serialUncachedConfig());
    std::vector<const LitmusTest *> first(tests.begin(), tests.begin() + 1);
    if (harness::suiteMatrix(first, engine).find("0 mismatches") ==
            std::string::npos)
        return 1;
    probeReady();
    if (rss) {
        harness::suiteMatrix(tests, engine);
        probeRss();
    }
    return 0;
}

} // namespace rexbench
