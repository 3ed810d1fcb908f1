/**
 * @file
 * Figure 9: the axiomatic model itself. Regenerated as an executable
 * artefact: the shipped models/aarch64-exceptions.cat is evaluated by
 * the cat interpreter against every candidate execution of every
 * built-in litmus test, under every paper variant, and the compiled
 * program the checker runs (catc) must agree with it on each one:
 * verdict, failed axiom and cycle.
 */

#include <cstdio>
#include <vector>

#include "catc/compile.hh"
#include "catc/exec.hh"
#include "rex/rex.hh"

int
main()
{
    using namespace rex;

    const cat::CatModel &model = cat::CatModel::shipped();
    std::printf("Figure 9: '%s' (models/aarch64-exceptions.cat)\n\n",
                model.name().c_str());

    const std::vector<ModelParams> variants = ModelParams::paperVariants();
    std::vector<catc::Program> programs;
    for (const ModelParams &params : variants)
        programs.push_back(catc::compileNative(params, true));

    harness::Table table;
    table.header({"test", "candidates", "agree"});

    std::size_t total_candidates = 0;
    std::size_t disagreements = 0;
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        std::size_t candidates = 0;
        bool agree = true;
        CandidateEnumerator enumerator(*test);
        enumerator.forEach([&](CandidateExecution &cand) {
            ++candidates;
            for (std::size_t v = 0; v < variants.size(); ++v) {
                const ModelResult compiled =
                    catc::FoldedProgram(programs[v], cand)
                        .runAttributed(cand);
                const ModelResult interpreted =
                    model.check(cand, variants[v]);
                if (compiled.consistent != interpreted.consistent ||
                        compiled.failedAxiom != interpreted.failedAxiom ||
                        compiled.cycle != interpreted.cycle) {
                    agree = false;
                    ++disagreements;
                }
            }
            return true;
        });
        total_candidates += candidates;
        table.row({test->name, std::to_string(candidates),
                   agree ? "yes" : "NO"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n%zu candidate executions checked under %zu variants: "
                "%zu disagreements\n",
                total_candidates, variants.size(), disagreements);
    return disagreements == 0 ? 0 : 1;
}
