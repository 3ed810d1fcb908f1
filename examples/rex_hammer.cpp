/**
 * @file
 * rex_hammer: the soundness-hammer campaign CLI (src/gen).
 *
 * Fans a seed range of synthesized litmus tests over the batch engine,
 * checking each one's operational outcomes against the axiomatic model
 * and reporting any operationally-reachable-but-forbidden outcome.
 * Campaigns checkpoint to disk after every chunk and resume from the
 * checkpoint, so a SIGKILL mid-run loses at most one chunk of work and
 * the resumed campaign's final summary is identical to an
 * uninterrupted run.
 *
 * Usage:
 *   ./example_rex_hammer [options]
 *     --seeds BEGIN:END     seed range (default 0:10000)
 *     --mode random|cycle   synthesis mode (default random)
 *     --checkpoint PATH     resume/checkpoint file (default none)
 *     --chunk N             seeds per engine batch (default 256)
 *     --max-candidates N    per-seed candidate ceiling (default 150000)
 *     --max-states N        per-seed operational state cap
 *                           (default 300000)
 *     --params NAME         model variant (base, ExS, SEA_R, SEA_W,
 *                           SEA_RW; default base)
 *     --jobs N              worker threads (default REX_JOBS else 1)
 *
 *   Inspection / triage:
 *     --print SEED          print seed's generated source and exit
 *     --check SEED          soundness-check one seed verbosely and exit
 *     --minimize SEED       shrink a violating seed and print the
 *                           minimal test (exits 1 if seed is sound)
 *     --promote SEED NAME   minimize + emit registry-ready source with
 *                           checker-computed verdict lines
 *
 * The documented acceptance campaign (zero violations expected):
 *   ./example_rex_hammer --seeds 0:100000 --checkpoint hammer.ckpt
 *
 * Exit status: 0 on a clean (or cleanly cancelled) campaign, 1 when
 * any violation was found, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "engine/batch.hh"
#include "gen/hammer.hh"
#include "gen/minimize.hh"

namespace {

using namespace rex;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seeds B:E] [--mode random|cycle] "
                 "[--checkpoint PATH]\n"
                 "          [--chunk N] [--max-candidates N] "
                 "[--max-states N]\n"
                 "          [--params NAME] [--jobs N]\n"
                 "          [--print SEED | --check SEED | "
                 "--minimize SEED |\n"
                 "           --promote SEED NAME]\n",
                 argv0);
    std::exit(2);
}

std::uint64_t
parseU64(const char *text, const char *argv0)
{
    char *end = nullptr;
    std::uint64_t value = std::strtoull(text, &end, 10);
    if (!end || *end != '\0')
        usage(argv0);
    return value;
}

const char *
outcomeName(gen::SeedOutcome outcome)
{
    switch (outcome) {
      case gen::SeedOutcome::Sound: return "sound";
      case gen::SeedOutcome::Skipped: return "skipped";
      case gen::SeedOutcome::Violation: return "VIOLATION";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    gen::HammerConfig config;
    config.seedEnd = 10000;

    enum class Action { Campaign, Print, Check, Minimize, Promote };
    Action action = Action::Campaign;
    std::uint64_t action_seed = 0;
    std::string promote_name;
    unsigned jobs_override = 0;
    bool jobs_set = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--seeds") {
            std::string range = value();
            std::size_t colon = range.find(':');
            if (colon == std::string::npos)
                usage(argv[0]);
            config.seedBegin =
                parseU64(range.substr(0, colon).c_str(), argv[0]);
            config.seedEnd =
                parseU64(range.substr(colon + 1).c_str(), argv[0]);
        } else if (arg == "--mode") {
            std::string mode = value();
            if (mode == "random") {
                config.mode = gen::Mode::Random;
            } else if (mode == "cycle") {
                config.mode = gen::Mode::Cycle;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--checkpoint") {
            config.checkpointPath = value();
        } else if (arg == "--chunk") {
            config.chunk = parseU64(value(), argv[0]);
        } else if (arg == "--max-candidates") {
            config.budget.maxCandidates = parseU64(value(), argv[0]);
        } else if (arg == "--max-states") {
            config.maxStates =
                static_cast<std::size_t>(parseU64(value(), argv[0]));
        } else if (arg == "--params") {
            config.params = ModelParams::byName(value());
        } else if (arg == "--jobs") {
            jobs_override =
                static_cast<unsigned>(parseU64(value(), argv[0]));
            jobs_set = true;
        } else if (arg == "--print") {
            action = Action::Print;
            action_seed = parseU64(value(), argv[0]);
        } else if (arg == "--check") {
            action = Action::Check;
            action_seed = parseU64(value(), argv[0]);
        } else if (arg == "--minimize") {
            action = Action::Minimize;
            action_seed = parseU64(value(), argv[0]);
        } else if (arg == "--promote") {
            action = Action::Promote;
            action_seed = parseU64(value(), argv[0]);
            promote_name = value();
        } else {
            usage(argv[0]);
        }
    }
    if (config.seedBegin > config.seedEnd)
        usage(argv[0]);

    gen::Hammer hammer(config);

    if (action == Action::Print) {
        gen::GeneratedTest test = hammer.testForSeed(action_seed);
        std::fputs(test.source.c_str(), stdout);
        std::printf("# features: %s\n", test.features.toString().c_str());
        return 0;
    }

    if (action == Action::Check) {
        gen::GeneratedTest test = hammer.testForSeed(action_seed);
        std::fputs(test.source.c_str(), stdout);
        gen::SeedResult result = hammer.checkSeed(action_seed);
        std::printf("# seed %llu: %s\n",
                    static_cast<unsigned long long>(action_seed),
                    outcomeName(result.outcome));
        for (const std::string &key : result.violating)
            std::printf("#   forbidden-but-reached: %s\n", key.c_str());
        return result.outcome == gen::SeedOutcome::Violation ? 1 : 0;
    }

    if (action == Action::Minimize || action == Action::Promote) {
        gen::GeneratedTest test = hammer.testForSeed(action_seed);
        gen::Oracle oracle = gen::makeSoundnessOracle(config);
        bool violating = oracle(test.spec);
        if (action == Action::Minimize && !violating) {
            std::fprintf(stderr,
                         "seed %llu is sound; nothing to minimize\n",
                         static_cast<unsigned long long>(action_seed));
            return 1;
        }
        gen::TestSpec spec = test.spec;
        if (violating) {
            // Shrink while the violation persists; a sound seed is
            // promoted as-is (curation of interesting shapes).
            gen::MinimizeStats stats;
            spec = gen::minimize(spec, oracle, &stats);
            std::fprintf(stderr,
                         "minimized in %u rounds: %u/%u shrinks kept\n",
                         stats.rounds, stats.accepted, stats.attempts);
        }
        if (action == Action::Minimize) {
            std::fputs(gen::render(spec).c_str(), stdout);
        } else {
            std::fputs(gen::promote(spec, promote_name).c_str(),
                       stdout);
        }
        return 0;
    }

    engine::EngineConfig engine_config = engine::EngineConfig::fromEnv();
    if (jobs_set)
        engine_config.jobs = jobs_override;
    engine::Engine engine(engine_config);

    gen::CampaignSummary summary = hammer.run(engine);
    std::fputs(summary.render().c_str(), stdout);
    if (config.mode == gen::Mode::Cycle) {
        std::printf("cycle inventory: %zu cycles\n",
                    hammer.inventorySize());
    }
    return summary.violationSeeds.empty() ? 0 : 1;
}
