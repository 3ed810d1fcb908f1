/**
 * @file
 * Quickstart: write a litmus test in the text format, ask the axiomatic
 * model whether its final state is observable, and inspect the witness
 * execution (or, for a forbidden outcome, the cycle that rules it out).
 *
 * Run: ./example_quickstart
 */

#include <cstdio>

#include "rex/rex.hh"

int
main()
{
    using namespace rex;

    // A message-passing shape whose reader takes an SVC between the two
    // loads. Is the stale read still observable?
    const char *source = R"(
name: quickstart-MP+dmb.sy+svc
init: *x=0; *y=0; 0:X1=x; 0:X3=y; 1:X1=y; 1:X3=x
thread 0:
    MOV X0,#1
    STR X0,[X1]
    DMB SY
    MOV X2,#1
    STR X2,[X3]
thread 1:
    LDR X0,[X1]
    SVC #0
    LDR X2,[X3]
handler 1:
    ERET
allowed: 1:X0=1 & 1:X2=0
)";

    LitmusTest test = parseLitmus(source);
    std::printf("test: %s\n", test.name.c_str());

    // Check under the baseline model and under SEA_R (loads may report
    // synchronous external aborts, §4).
    for (const ModelParams &params :
            {ModelParams::base(), ModelParams::seaReads()}) {
        CheckResult result = checkTest(test, params);
        std::printf("\nmodel variant %-6s : %s "
                    "(%zu candidates, %zu consistent, %zu witnesses)\n",
                    params.name().c_str(),
                    result.observable ? "Allowed" : "Forbidden",
                    result.candidates, result.consistent,
                    result.witnesses);
        if (result.witness) {
            std::printf("witness execution:\n%s",
                        result.witness->dump().c_str());
        }
    }

    // The checker runs the shipped cat model (Figure 9) compiled; the
    // cat interpreter evaluates the same file and is the reference the
    // tests hold the compiled program to.
    const cat::CatModel &catModel = cat::CatModel::shipped();
    std::printf("\nshipped cat model: \"%s\"\n", catModel.name().c_str());

    return 0;
}
