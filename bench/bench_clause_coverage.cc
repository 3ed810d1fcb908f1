/**
 * @file
 * Model-coverage analysis: across every forbidden outcome in the litmus
 * library, which clause families of the Figure 9 model contribute edges
 * to the forbidding cycles? A clause family that never appears in any
 * cycle would be untested by the suite; this bench shows every family
 * earns its keep (and quantifies how often). The cycles and the clause
 * families are the cat interpreter's, on the shipped model.
 */

#include <cstdio>
#include <map>

#include "rex/rex.hh"

int
main()
{
    using namespace rex;

    const cat::CatModel &model = cat::CatModel::shipped();
    const ModelParams params = ModelParams::base();
    std::map<std::string, std::size_t> edge_hits;
    std::size_t cycles = 0;
    std::size_t atomic_violations = 0;

    for (const LitmusTest *test : TestRegistry::instance().all()) {
        CandidateEnumerator enumerator(*test);
        enumerator.forEach([&](CandidateExecution &cand) {
            if (!condHolds(cand, test->finalCond))
                return true;
            ModelResult result = model.check(cand, params);
            if (result.consistent)
                return true;
            if (result.failedAxiom == "atomic") {
                // The rmw (aob) machinery is exercised through the
                // atomic axiom rather than ob cycles.
                ++atomic_violations;
                return true;
            }
            if (result.failedAxiom != "external" || !result.cycle)
                return true;
            ++cycles;
            // The clause families are the model's let bindings.
            cat::Evaluator rels(cand, cat::flagsFor(params), {});
            rels.evaluateFile(model.file());
            const auto &cycle = *result.cycle;
            for (std::size_t i = 0; i < cycle.size(); ++i) {
                EventId from = cycle[i];
                EventId to = cycle[(i + 1) % cycle.size()];
                for (const char *name : {"obs", "dob", "aob", "bob",
                                         "ctxob", "asyncob", "ets2",
                                         "gicob"}) {
                    if (rels.binding(name).asRel(cand.size())
                            .contains(from, to))
                        ++edge_hits[name];
                }
            }
            return true;
        });
    }

    std::printf("Clause coverage over the litmus library: edges of\n"
                "forbidding cycles, classified by clause family\n\n");
    harness::Table table;
    table.header({"clause family", "cycle edges"});
    for (const char *name : {"obs", "dob", "aob", "bob", "ctxob",
                             "asyncob", "ets2", "gicob"}) {
        auto it = edge_hits.find(name);
        table.row({name, std::to_string(
            it == edge_hits.end() ? 0 : it->second)});
    }
    table.row({"atomic axiom", std::to_string(atomic_violations)});
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n%zu forbidding ob-cycles analysed (an edge may belong "
                "to several families,\nso columns overlap); the rmw "
                "machinery additionally surfaces through the\natomic "
                "axiom (%zu violations).\n", cycles, atomic_violations);

    bool all_covered = atomic_violations > 0;  // rmw/aob coverage
    for (const char *name : {"obs", "dob", "bob", "ctxob",
                             "asyncob", "ets2", "gicob"}) {
        if (!edge_hits.count(name)) {
            std::printf("WARNING: clause family %s never used!\n", name);
            all_covered = false;
        }
    }
    return all_covered ? 0 : 1;
}
