/**
 * @file
 * hammer-random: a random-mode rexgen soundness campaign over a
 * fixed-length seed range, through
 * gen::Hammer::run on an engine with min(4, nproc) jobs, default
 * budgets and no checkpoint.
 *
 * The seed argument is folded into the seeds hammer_outcomes.txt
 * records (one line per generated seed; see recordHammerOutcomes), and
 * the rendered campaign summary must equal the one recorded for the
 * range. Traced, each slice runs again through Hammer::run in a span
 * and then seed by seed through Hammer::checkSeed, a span each (the
 * engine's busy time); then every seed goes through a layer probe with
 * a span around gen::generate, parseLitmus, CandidateEnumerator, the
 * staged computeSkeleton / checkConsistent pass and op::explore. Both
 * traced summaries must equal the untraced one.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>

#include "common.hh"
#include "gen/generator.hh"
#include "gen/hammer.hh"
#include "rex/rex.hh"

#ifndef REXBENCH_DIR
#error "REXBENCH_DIR must name the benchmark's source directory"
#endif

namespace rexbench {

using namespace rex;

namespace {

/** Seeds per second of --seconds: the campaign length is fixed by the
 *  run length, not by how fast the host gets through it. */
constexpr double kSeedsPerSecond = 200;

const char *const kOutcomesPath = REXBENCH_DIR "/hammer_outcomes.txt";

gen::HammerConfig
campaignConfig(std::uint64_t begin, std::uint64_t count)
{
    gen::HammerConfig config;
    config.seedBegin = begin;
    config.seedEnd = begin + count;
    config.mode = gen::Mode::Random;
    return config;
}

engine::EngineConfig
poolConfig(unsigned jobs)
{
    engine::EngineConfig config;
    config.jobs = jobs;
    config.cacheEnabled = false;
    return config;
}

/** Feature flags of one test as a 10-bit mask (Features field order). */
unsigned
featureBits(const gen::Features &f)
{
    const std::uint64_t fields[] = {f.svc,     f.eret, f.interrupt,
                                    f.handler, f.barrier, f.acqRel,
                                    f.rmw,     f.dep,  f.pair,
                                    f.threads3};
    unsigned bits = 0;
    for (unsigned i = 0; i < 10; ++i)
        bits |= (fields[i] ? 1u : 0u) << i;
    return bits;
}

gen::Features
featuresOf(unsigned bits)
{
    gen::Features f;
    std::uint64_t *fields[] = {&f.svc,     &f.eret, &f.interrupt,
                               &f.handler, &f.barrier, &f.acqRel,
                               &f.rmw,     &f.dep,  &f.pair,
                               &f.threads3};
    for (unsigned i = 0; i < 10; ++i)
        *fields[i] = (bits >> i) & 1u;
    return f;
}

char
outcomeLetter(gen::SeedOutcome outcome)
{
    switch (outcome) {
      case gen::SeedOutcome::Sound: return 'S';
      case gen::SeedOutcome::Skipped: return 'K';
      case gen::SeedOutcome::Violation: return 'V';
    }
    return '?';
}

void
addResult(gen::CampaignSummary &summary, std::uint64_t seed, char outcome,
          const gen::Features &features)
{
    ++summary.tested;
    summary.features.merge(features);
    if (outcome == 'S')
        ++summary.sound;
    else if (outcome == 'K')
        ++summary.skipped;
    else
        summary.violationSeeds.push_back(seed);
}

/** The data lines of hammer_outcomes.txt: line i is seed i's outcome
 *  letter and feature mask. */
std::vector<std::string>
loadOutcomes()
{
    std::ifstream in(kOutcomesPath);
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            rows.push_back(line);
    }
    return rows;
}

/**
 * The campaign's first seed: the seed argument folded into the seeds
 * the table covers, so every run's summary is compared with a recorded
 * one. Ranges start at seed mod (covered - count + 1).
 */
std::uint64_t
firstSeed(std::uint64_t seed, std::uint64_t count, std::uint64_t covered)
{
    return count <= covered ? seed % (covered - count + 1) : seed;
}

/** The summary recorded for [begin, begin + count), rebuilt from the
 *  per-seed outcome table; empty when the table does not cover it. */
std::string
recordedSummary(const std::vector<std::string> &rows, std::uint64_t begin,
                std::uint64_t count)
{
    if (begin + count > rows.size())
        return std::string();
    gen::CampaignSummary summary;
    summary.seedBegin = begin;
    summary.seedEnd = summary.nextSeed = begin + count;
    for (std::uint64_t seed = begin; seed < begin + count; ++seed) {
        const std::string &row = rows[seed];
        addResult(summary, seed, row[0],
                  featuresOf(static_cast<unsigned>(
                      std::stoul(row.substr(1), nullptr, 16))));
    }
    return summary.render();
}

/**
 * Drive the layers of one seed's soundness check one call at a time,
 * in gen::soundnessCheck's order and under its budget, with a span per
 * call. A probe, like the suite's layer probe: the campaign's verdicts
 * come from Hammer::run and Hammer::checkSeed, not from here.
 */
void
probeSeed(const gen::HammerConfig &config, std::uint64_t seed, Trace *trace,
          std::uint64_t parent, std::atomic<std::uint64_t> &truncated)
{
    std::optional<gen::GeneratedTest> generated;
    {
        ScopedSpan span(trace, "gen.generate", parent, seed);
        generated.emplace(gen::generate(seed, config.gen));
    }
    std::optional<LitmusTest> test;
    {
        ScopedSpan span(trace, "litmus.parse", parent, seed);
        test.emplace(parseLitmus(generated->source));
    }

    engine::Governor governor(config.budget);
    const engine::CancelToken *token = governor.token();
    bool aborted = false;
    {
        std::optional<CandidateEnumerator> enumerator;
        {
            ScopedSpan span(trace, "axiomatic.traces", parent, seed);
            enumerator.emplace(*test, token);
        }
        ScopedSpan span(trace, "axiomatic.staged", parent, seed);
        std::optional<std::uint64_t> skeletonCombo;
        SkeletonRelations skeleton;
        std::uint64_t coherent = 0;
        enumerator->forEachStaged(
            [&](CandidateExecution &cand,
                const CandidateEnumerator::StagedInfo &info) {
                if (!governor.admit()) {
                    aborted = true;
                    return false;
                }
                if (!info.coherent)
                    return true;
                ++coherent;
                if (!skeletonCombo || *skeletonCombo != info.comboIndex) {
                    skeleton = computeSkeleton(cand, config.params);
                    skeletonCombo = info.comboIndex;
                }
                aborted = checkConsistent(cand, config.params, skeleton,
                                          /*internal_prechecked=*/true,
                                          token)
                              .aborted;
                return !aborted;
            },
            token);
        span.setCount(coherent);
    }
    // The hammer explores only seeds whose axiomatic side finished.
    if (aborted || governor.tripped())
        return;

    ScopedSpan span(trace, "op.explore", parent, seed);
    op::ExploreResult explored = op::explore(
        *test, op::CoreProfile::maxRelaxed(), config.maxStates);
    span.setCount(explored.statesVisited);
    if (explored.truncated)
        ++truncated;
}

/**
 * The program's own per-seed call over a config's seeds, fanned over
 * @p engine in one batch, with a hammer.seed span around each
 * Hammer::checkSeed. Returns the summary of the outcomes.
 */
gen::CampaignSummary
checkSeeds(const gen::HammerConfig &config, engine::Engine &engine,
           Trace *trace)
{
    const gen::Hammer hammer(config);
    ScopedSpan passSpan(trace, "hammer.check_seeds", 0, config.seedBegin);
    std::vector<gen::SeedResult> results = engine.map(
        static_cast<std::size_t>(config.seedEnd - config.seedBegin),
        [&](std::size_t i) {
            const std::uint64_t seed = config.seedBegin + i;
            ScopedSpan span(trace, "hammer.seed", passSpan.id(), seed);
            return hammer.checkSeed(seed);
        });
    gen::CampaignSummary summary;
    summary.seedBegin = config.seedBegin;
    summary.seedEnd = summary.nextSeed = config.seedEnd;
    for (const gen::SeedResult &result : results)
        addResult(summary, result.seed, outcomeLetter(result.outcome),
                  result.features);
    return summary;
}

/**
 * Per-layer metrics of the traced hammer passes. Busy time is the sum
 * of the hammer.seed spans; the campaign's wall time is the sum of the
 * hammer.run spans, each one Hammer::run over a slice of the range,
 * timed right before the same slice's checkSeeds pass; the idle rest
 * is spread over the @p chunks engine.map batches of
 * HammerConfig::chunk seeds those runs made.
 */
void
addTracedMetrics(Trace *trace, unsigned jobs, std::uint64_t chunks,
                 std::uint64_t truncated, Metrics &layers)
{
    std::vector<double> exploreMs;
    double exploreNs = 0;
    std::uint64_t states = 0;
    for (const Span &span : trace->named("op.explore")) {
        exploreMs.push_back(span.ns() / 1e6);
        exploreNs += span.ns();
        states += span.count;
    }
    double stagedNs = 0;
    std::uint64_t staged = 0;
    for (const Span &span : trace->named("axiomatic.staged")) {
        stagedNs += span.ns();
        staged += span.count;
    }
    layers.add("axiomatic.staged_ns_per_candidate",
               staged ? stagedNs / static_cast<double>(staged) : 0, "ns");
    layers.add("operational.explore_ms_p50", quantile(exploreMs, 0.5), "ms");
    layers.add("operational.explore_ms_p99", quantile(exploreMs, 0.99),
               "ms");
    layers.add("operational.states", static_cast<double>(states), "count");
    layers.add("operational.truncated", static_cast<double>(truncated),
               "count");
    layers.add("operational.ns_per_state",
               states ? exploreNs / static_cast<double>(states) : 0, "ns");

    double busy = 0;
    for (double ns : trace->durations("hammer.seed"))
        busy += ns;
    double wall = 0;
    for (double ns : trace->durations("hammer.run"))
        wall += ns;
    layers.add("engine.busy_ratio", wall > 0 ? busy / (wall * jobs) : 0,
               "ratio");
    layers.add("engine.chunk_tail_ms",
               chunks ? (wall - busy / jobs) / static_cast<double>(chunks) /
                            1e6
                      : 0,
               "ms");
}

/** Fold @p part (a later, adjacent seed range) into @p whole. */
void
mergeSummary(gen::CampaignSummary &whole, const gen::CampaignSummary &part)
{
    whole.seedEnd = part.seedEnd;
    whole.nextSeed = part.nextSeed;
    whole.tested += part.tested;
    whole.sound += part.sound;
    whole.skipped += part.skipped;
    whole.violationSeeds.insert(whole.violationSeeds.end(),
                                part.violationSeeds.begin(),
                                part.violationSeeds.end());
    whole.features.merge(part.features);
}

class HammerPhase : public Phase
{
  public:
    explicit HammerPhase(const PhaseContext &ctx)
        : _ctx(ctx), _outcomes(loadOutcomes()),
          _count(ctx.options.smoke
                     ? 16
                     : static_cast<std::uint64_t>(ctx.options.seconds *
                                                  kSeedsPerSecond)),
          _config(campaignConfig(
              firstSeed(ctx.options.seed, _count, _outcomes.size()),
              _count)),
          _engine(poolConfig(ctx.options.hammerJobs))
    {
        // Warm the pool and the model on seeds outside the range.
        gen::Hammer(campaignConfig(_config.seedEnd, 16)).run(_engine);
        _summary.seedBegin = _summary.seedEnd = _summary.nextSeed =
            _config.seedBegin;
    }

    /** Slice k campaigns over the k-th part of the seed range. */
    void
    slice(std::size_t index, std::size_t slices) override
    {
        std::uint64_t begin = _config.seedBegin + _count * index / slices;
        std::uint64_t end = _config.seedBegin + _count * (index + 1) / slices;
        _slices.emplace_back(begin, end);
        Clock::time_point start = Clock::now();
        gen::CampaignSummary part =
            gen::Hammer(campaignConfig(begin, end - begin)).run(_engine);
        const double seconds = secondsSince(start);
        _seconds += seconds;
        _sliceRates.push_back(static_cast<double>(end - begin) / seconds);
        mergeSummary(_summary, part);
    }

    void
    finish() override
    {
        Gates &gates = _ctx.gates;
        // The median slice: a stall of the host slows one slice, and the
        // slices' seeds cost much the same.
        _ctx.e2e.add("seeds_per_s", median(_sliceRates), "1/s");
        gates.attempted += _summary.tested;
        gates.failed += _summary.skipped;
        if (_ctx.options.workload == kHammerRandom) {
            _ctx.layers.add("failed_ratio",
                            static_cast<double>(_summary.skipped) /
                                static_cast<double>(_summary.tested),
                            "ratio");
        }
        const std::string rendered = _summary.render();
        std::fprintf(stderr,
                     "hammer-random: %llu seeds in %.3f s (%u jobs)\n%s",
                     static_cast<unsigned long long>(_count), _seconds,
                     _engine.jobs(), rendered.c_str());

        gates.check(_summary.complete() && _summary.tested == _count,
                    "hammer campaign incomplete");
        gates.check(_summary.violationSeeds.empty(),
                    "hammer campaign found soundness violations");
        const std::string recorded =
            recordedSummary(_outcomes, _config.seedBegin, _count);
        gates.check(!recorded.empty(),
                    "hammer_outcomes.txt records " +
                        std::to_string(_outcomes.size()) +
                        " seeds, fewer than the campaign's " +
                        std::to_string(_count));
        gates.check(recorded.empty() || rendered == recorded,
                    "hammer summary differs from the recorded one:\n" +
                        recorded);

        if (_ctx.trace)
            traced(rendered);
    }

  private:
    /**
     * The traced passes. Each slice runs again through Hammer::run in a
     * hammer.run span, then through checkSeeds, so the campaign's wall
     * time and its seeds' busy time are taken seconds apart. Then every
     * seed goes through the layer probe. Both summaries must equal the
     * untraced one.
     */
    void
    traced(const std::string &rendered)
    {
        Trace *trace = _ctx.trace;
        gen::CampaignSummary ran;
        gen::CampaignSummary checked;
        ran.seedBegin = ran.seedEnd = ran.nextSeed = _config.seedBegin;
        checked = ran;
        std::uint64_t chunks = 0;
        double runSeconds = 0;
        for (const auto &[begin, end] : _slices) {
            const gen::HammerConfig config = campaignConfig(begin, end - begin);
            Clock::time_point start = Clock::now();
            {
                ScopedSpan span(trace, "hammer.run", 0, begin);
                span.setCount(end - begin);
                mergeSummary(ran, gen::Hammer(config).run(_engine));
            }
            runSeconds += secondsSince(start);
            chunks += (end - begin + config.chunk - 1) / config.chunk;
            mergeSummary(checked, checkSeeds(config, _engine, trace));
        }
        trace->noteOverhead(_seconds, runSeconds);
        _ctx.gates.check(ran.render() == rendered,
                         "traced hammer summary differs from the untraced "
                         "one");
        _ctx.gates.check(checked.render() == rendered,
                         "Hammer::checkSeed outcomes differ from the "
                         "campaign summary");

        std::atomic<std::uint64_t> truncated{0};
        {
            ScopedSpan span(trace, "hammer.probe", 0, _config.seedBegin);
            _engine.map(static_cast<std::size_t>(_count), [&](std::size_t i) {
                probeSeed(_config, _config.seedBegin + i, trace, span.id(),
                          truncated);
                return 0;
            });
        }
        addTracedMetrics(trace, _engine.jobs(), chunks, truncated.load(),
                         _ctx.layers);
    }

    PhaseContext _ctx;
    std::vector<std::string> _outcomes;
    std::uint64_t _count;
    gen::HammerConfig _config;
    engine::Engine _engine;
    gen::CampaignSummary _summary;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> _slices;
    double _seconds = 0;
    std::vector<double> _sliceRates;
};

} // namespace

std::unique_ptr<Phase>
makeHammerPhase(const PhaseContext &ctx)
{
    return std::make_unique<HammerPhase>(ctx);
}

int
hammerSetupProbe(unsigned jobs, bool rss)
{
    // Process start through engine start to the first seed's result.
    // The probe's seeds are fixed: checks are heavy-tailed, and the
    // probe should time the program, not the cost of one seed.
    engine::Engine engine(poolConfig(jobs));
    if (gen::Hammer(campaignConfig(0, 1)).run(engine).tested != 1)
        return 1;
    probeReady();
    if (rss) {
        // Four chunks of a campaign, for its peak memory.
        gen::Hammer(campaignConfig(0, 4 * gen::HammerConfig().chunk))
            .run(engine);
        probeRss();
    }
    return 0;
}

int
recordHammerOutcomes(std::uint64_t count, unsigned jobs)
{
    engine::Engine engine(poolConfig(jobs));
    gen::Hammer hammer(campaignConfig(0, count));
    std::vector<std::pair<char, unsigned>> rows =
        engine.map(static_cast<std::size_t>(count), [&](std::size_t i) {
            gen::SeedResult result = hammer.checkSeed(i);
            return std::make_pair(outcomeLetter(result.outcome),
                                  featureBits(result.features));
        });
    std::printf("# rexgen random-mode soundness outcomes, one line per "
                "seed from 0: S sound, K skipped, V violation, then the\n"
                "# test's feature flags as a hex mask (svc, eret, "
                "interrupt, handler, barrier, acqrel, rmw, dep, pair,\n"
                "# threads3 from bit 0). Regenerate with "
                "rexbench --record-hammer %llu.\n",
                static_cast<unsigned long long>(count));
    for (const auto &[outcome, bits] : rows)
        std::printf("%c%x\n", outcome, bits);
    return 0;
}

} // namespace rexbench
