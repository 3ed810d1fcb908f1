/**
 * @file
 * check_file: a small command-line test oracle in the spirit of the
 * paper's Isla usage — load a .litmus file, enumerate its candidate
 * executions, and report the verdict under one or more model variants,
 * with the witness (or the forbidding explanation) on request.
 *
 * Usage:
 *   ./example_check_file [--dot|--all|--jobs N] FILE.litmus [variant...]
 *   ./example_check_file [--dot|--all|--jobs N] --builtin TEST-NAME
 *                        [variant...]
 *
 * Variants: base (default), ExS, ExS_EIS0, ExS_EOS0, SEA_R, SEA_W,
 * SEA_RW, noETS2. With --dot, the witness execution is printed as a
 * Graphviz graph (pipe into `dot -Tsvg`); with --all, every consistent
 * final state is listed with the number of consistent candidate
 * executions reaching it (Isla-style exhaustive output).
 *
 * The per-variant checks run as independent jobs on the batch engine
 * (--jobs N, default REX_JOBS else hardware concurrency); output is
 * printed in variant order regardless of the schedule. The full
 * enumeration (exact candidate counts, witness) always runs — verdicts
 * are not served from the cache here, because the oracle's whole point
 * is the counted evidence.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "base/strings.hh"
#include "rex/rex.hh"

namespace {

/** Render every consistent final state under @p params. */
std::string
listAllOutcomes(const rex::LitmusTest &test,
                const rex::ModelParams &params)
{
    using namespace rex;
    // The condition's registers in condition order, then every
    // location in declaration order.
    std::vector<CondAtom> places;
    for (const CondAtom &atom : test.finalCond.atoms) {
        if (atom.kind == CondAtom::Kind::Register)
            places.push_back(atom);
    }
    for (LocationId loc = 0; loc < test.locations.size(); ++loc)
        places.push_back({.kind = CondAtom::Kind::Memory, .loc = loc});
    std::map<std::string, std::size_t> outcomes;
    forEachConsistent(test, params, [&](const CandidateExecution &cand) {
        std::string key;
        for (const CondAtom &place : places) {
            key += atomName(test, place) + "=" +
                std::to_string(finalValue(place, cand)) + " ";
        }
        ++outcomes[key];
    });
    std::string out;
    for (const auto &[key, count] : outcomes) {
        out += rex::format("    %6zu  %s\n", count, key.c_str());
    }
    out += rex::format("    (%zu distinct consistent final states)\n",
                       outcomes.size());
    return out;
}

/** Everything one variant's job computes. */
struct VariantReport {
    rex::CheckResult result;
    std::string outcomesListing;  // --all only
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rex;

    // ^C mid-run keeps the JSONL records already proved.
    engine::installFlushOnExitSignals();
    // A fatal signal names the test/variant/stage it hit on stderr.
    engine::installCrashAttributionHandler();

    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s FILE.litmus [variant...]\n"
                     "       %s --builtin TEST-NAME [variant...]\n",
                     argv[0], argv[0]);
        return 2;
    }

    LitmusTest owned;
    const LitmusTest *test = nullptr;
    int arg = 1;
    bool dot = false;
    bool all = false;
    engine::EngineConfig config = engine::EngineConfig::fromEnv();
    // The oracle wants exact counts and witnesses, which cached verdicts
    // (short-circuited, witness-less) cannot provide.
    config.cacheEnabled = false;
    while (arg < argc && (std::strcmp(argv[arg], "--dot") == 0 ||
                          std::strcmp(argv[arg], "--all") == 0 ||
                          std::strcmp(argv[arg], "--jobs") == 0)) {
        if (std::strcmp(argv[arg], "--dot") == 0) {
            dot = true;
        } else if (std::strcmp(argv[arg], "--all") == 0) {
            all = true;
        } else {
            if (arg + 1 >= argc) {
                std::fprintf(stderr, "--jobs needs a count\n");
                return 2;
            }
            config.jobs = static_cast<unsigned>(
                std::strtoul(argv[++arg], nullptr, 10));
        }
        ++arg;
    }
    if (arg >= argc) {
        std::fprintf(stderr, "missing test argument\n");
        return 2;
    }
    argv += arg - 1;
    argc -= arg - 1;
    arg = 1;
    if (std::strcmp(argv[1], "--builtin") == 0) {
        if (argc < 3) {
            std::fprintf(stderr, "--builtin needs a test name\n");
            return 2;
        }
        test = &TestRegistry::instance().get(argv[2]);
        arg = 3;
    } else {
        owned = parseLitmusFile(argv[1]);
        test = &owned;
        arg = 2;
    }

    std::vector<std::string> variants;
    for (; arg < argc; ++arg)
        variants.push_back(argv[arg]);
    if (variants.empty())
        variants.push_back("base");

    std::printf("%s: %s\n", test->name.c_str(),
                test->description.c_str());

    // One engine job per requested variant; reports print in variant
    // order below, independent of the schedule.
    engine::Engine engine(config);
    std::vector<VariantReport> reports =
        engine.map(variants.size(), [&](std::size_t i) {
            VariantReport report;
            ModelParams params = ModelParams::byName(variants[i]);
            report.result = checkTest(*test, params);
            if (all)
                report.outcomesListing = listAllOutcomes(*test, params);
            return report;
        });

    bool all_match = true;
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const std::string &variant = variants[v];
        const CheckResult &result = reports[v].result;
        std::printf("  %-9s %-9s  (%zu candidates, %zu consistent, "
                    "%zu witnesses)\n",
                    variant.c_str(),
                    result.observable ? "Allowed" : "Forbidden",
                    result.candidates, result.consistent,
                    result.witnesses);

        bool expected = variant == "base"
            ? test->expectedAllowed
            : (test->variantAllowed.count(variant)
                   ? test->variantAllowed.at(variant)
                   : result.observable);
        if (result.observable != expected) {
            std::printf("           MISMATCH: expected %s\n",
                        expected ? "Allowed" : "Forbidden");
            all_match = false;
        }
        if (all)
            std::fputs(reports[v].outcomesListing.c_str(), stdout);
        if (result.witness) {
            if (dot) {
                std::fputs(result.witness->toDot().c_str(), stdout);
            } else {
                std::printf("           witness:\n%s",
                            result.witness->dump().c_str());
            }
        }
    }
    return all_match ? 0 : 1;
}
