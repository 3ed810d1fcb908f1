/**
 * @file
 * Seed-keyed random litmus synthesis over the TestSpec IR.
 */

#include "gen/generator.hh"

#include "base/rng.hh"

namespace rex::gen {

namespace {

/** Per-thread synthesis state: access budgets and load-slot supply. */
struct ThreadBudget {
    unsigned loads = 0;
    unsigned stores = 0;
    unsigned maxLoads = 2;
    unsigned maxStores = 2;
    int nextSlot = 0;  //!< next load destination (X0..X4)

    bool canLoad(unsigned n = 1) const
    {
        return loads + n <= maxLoads && nextSlot + static_cast<int>(n) <= 5;
    }
    bool canStore(unsigned n = 1) const { return stores + n <= maxStores; }
};

/** Slots of loads emitted so far in program order (for dependencies). */
struct EmittedLoads {
    std::vector<int> slots;
};

/** Append one random op to @p ops, respecting the budgets. */
void
emitOp(Rng &rng, const GenConfig &config, int num_locations,
       std::vector<Op> &ops, ThreadBudget &budget, EmittedLoads &loads)
{
    Op op;
    op.loc = static_cast<int>(rng.pick(static_cast<std::uint64_t>(
        num_locations)));
    std::uint64_t choice = rng.pick(10);

    // Reroute budget-exhausted choices to fences/noise so the stream
    // of rng draws stays aligned with the choice sequence.
    bool want_load = (choice == 0 || choice == 1 || choice == 6);
    bool want_store = (choice == 2 || choice == 3 || choice == 7);
    if (want_load && !budget.canLoad())
        choice = 4;
    if (want_store && !budget.canStore())
        choice = 4;
    if (choice == 8 && (!config.rmw || !budget.canLoad() ||
                        !budget.canStore())) {
        choice = 4;
    }
    if (choice == 9 && !config.pairs)
        choice = 4;

    switch (choice) {
      case 0:
      case 1: {
        // Plain or acquire load, possibly dependent on an earlier load.
        op.kind = Op::Kind::Load;
        op.dst = budget.nextSlot++;
        ++budget.loads;
        if (config.acqRel && rng.chance(20)) {
            if (rng.chance(50))
                op.acquire = true;
            else
                op.acquirePc = true;
        }
        if (config.deps && !loads.slots.empty() && rng.chance(35)) {
            op.dep = rng.chance(60) ? Op::Dep::Addr : Op::Dep::Ctrl;
            op.depOn = loads.slots[rng.pick(loads.slots.size())];
        }
        loads.slots.push_back(op.dst);
        break;
      }
      case 2:
      case 3: {
        // Store of a small immediate, possibly release / dependent.
        op.kind = Op::Kind::Store;
        op.value = 1 + rng.pick(3);
        ++budget.stores;
        if (config.acqRel && rng.chance(20))
            op.release = true;
        if (config.deps && !loads.slots.empty() && rng.chance(35)) {
            std::uint64_t dep_kind = rng.pick(3);
            op.dep = dep_kind == 0
                         ? Op::Dep::Addr
                         : (dep_kind == 1 ? Op::Dep::Data : Op::Dep::Ctrl);
            op.depOn = loads.slots[rng.pick(loads.slots.size())];
        }
        break;
      }
      case 4:
      case 5: {
        op.kind = Op::Kind::Fence;
        std::uint64_t fence = rng.pick(5);
        op.fence = static_cast<Op::Fence>(fence);
        break;
      }
      case 6: {
        // Second load flavour: keeps loads common in the mix.
        op.kind = Op::Kind::Load;
        op.dst = budget.nextSlot++;
        ++budget.loads;
        loads.slots.push_back(op.dst);
        break;
      }
      case 7: {
        op.kind = Op::Kind::Store;
        op.value = 1 + rng.pick(3);
        ++budget.stores;
        break;
      }
      case 8: {
        // Exclusive-pair RMW: one load and one store of the location.
        op.kind = Op::Kind::Rmw;
        op.value = 1 + rng.pick(3);
        op.dst = budget.nextSlot++;
        ++budget.loads;
        ++budget.stores;
        loads.slots.push_back(op.dst);
        break;
      }
      case 9: {
        // LDP/STP over a location base (two accesses): the assembler's
        // second element lands on the *next* location's cell, so pairs
        // only start below the last location (else the access faults
        // off the end of mapped memory with no handler).
        op.loc = static_cast<int>(rng.pick(static_cast<std::uint64_t>(
            num_locations - 1)));
        if (rng.chance(50) && budget.canLoad(2) &&
                budget.nextSlot + 2 <= 5) {
            op.kind = Op::Kind::LoadPair;
            op.dst = budget.nextSlot;
            budget.nextSlot += 2;
            budget.loads += 2;
            loads.slots.push_back(op.dst);
        } else if (budget.canStore(2)) {
            op.kind = Op::Kind::StorePair;
            op.value = 1 + rng.pick(3);
            budget.stores += 2;
        } else {
            op.kind = Op::Kind::MovImm;
            op.value = 1 + rng.pick(3);
        }
        break;
      }
    }
    ops.push_back(op);
}

ThreadSpec
generateThread(Rng &rng, const GenConfig &config, int num_locations,
               bool tight_budget, EmittedLoads &loads_out)
{
    ThreadSpec thread;
    ThreadBudget budget;
    budget.maxLoads = tight_budget ? 1 : config.maxLoadsPerThread;
    budget.maxStores = tight_budget ? 1 : config.maxStoresPerThread;

    unsigned max_ops = tight_budget ? 3 : config.maxOpsPerThread;
    unsigned total = 2 + static_cast<unsigned>(rng.pick(max_ops - 1));

    // Exception shape, decided up front so the op stream is split
    // deterministically: none, SVC entry, or a pended interrupt —
    // optionally returning with ERET.
    bool take_exception = (config.svc || config.interrupts) &&
                          rng.chance(config.exceptionPercent);
    bool use_interrupt = false;
    bool use_eret = false;
    unsigned handler_ops = 0;
    if (take_exception) {
        use_interrupt = config.interrupts &&
                        (!config.svc || rng.chance(45));
        use_eret = config.eret && rng.chance(50);
        handler_ops = 1 + static_cast<unsigned>(rng.pick(2));
    }

    EmittedLoads loads;
    unsigned body_ops = take_exception
                            ? 1 + static_cast<unsigned>(rng.pick(total))
                            : total;
    for (unsigned i = 0; i < body_ops; ++i)
        emitOp(rng, config, num_locations, thread.body, budget, loads);
    if (take_exception) {
        thread.svc = !use_interrupt;
        thread.interrupt = use_interrupt;
        thread.eret = use_eret;
        for (unsigned i = 0; i < handler_ops; ++i) {
            emitOp(rng, config, num_locations, thread.handler, budget,
                   loads);
        }
        if (use_eret) {
            unsigned after_ops = static_cast<unsigned>(rng.pick(2));
            for (unsigned i = 0; i < after_ops; ++i) {
                emitOp(rng, config, num_locations, thread.after, budget,
                       loads);
            }
        }
    }
    loads_out = loads;
    return thread;
}

} // namespace

GeneratedTest
packageSpec(TestSpec spec)
{
    GeneratedTest out;
    out.source = render(spec);
    out.features = specFeatures(spec);
    out.spec = std::move(spec);
    return out;
}

GeneratedTest
generate(std::uint64_t seed, const GenConfig &config)
{
    Rng rng(seed);
    TestSpec spec;
    spec.name = "gen-" + std::to_string(seed);

    bool three = rng.chance(config.threeThreadPercent);
    unsigned num_threads = three ? 3 : 2;
    spec.numLocations = rng.chance(30) ? 3 : 2;

    std::vector<EmittedLoads> thread_loads(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
        spec.threads.push_back(generateThread(
            rng, config, spec.numLocations, three, thread_loads[t]));
    }

    // Condition: project a few load destinations (plus occasionally a
    // memory cell). The hammer compares whole-outcome projections, so
    // the condition's truth value is irrelevant there — but it decides
    // which registers the outcome key (litmus FinalState) carries, so
    // loads referenced here get cross-checked between the two semantics.
    for (unsigned t = 0; t < num_threads; ++t) {
        for (int slot : thread_loads[t].slots) {
            if (spec.condition.size() >= 4)
                break;
            if (rng.chance(70)) {
                SpecCond atom;
                atom.tid = static_cast<int>(t);
                atom.slot = slot;
                atom.value = rng.pick(3);
                spec.condition.push_back(atom);
            }
        }
    }
    if (spec.condition.empty() || rng.chance(25)) {
        SpecCond atom;
        atom.memory = true;
        atom.loc = static_cast<int>(
            rng.pick(static_cast<std::uint64_t>(spec.numLocations)));
        atom.value = rng.pick(3);
        spec.condition.push_back(atom);
    }

    return packageSpec(std::move(spec));
}

} // namespace rex::gen
