/**
 * @file
 * Transition-level unit tests for the operational machine: issue /
 * satisfy / commit mechanics, forwarding, barrier blocking, DSB issue
 * stalls, fault draining, interrupt transitions, and profile gating;
 * and the segment invariants exhaustive exploration relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "gen/generator.hh"
#include "gen/hammer.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "operational/machine.hh"

namespace rex {
namespace {

using op::CoreProfile;
using op::Machine;

using Kind = Machine::Transition::Kind;

/** All transitions enabled in the machine's current state. */
std::vector<Machine::Transition>
enabled(const Machine &machine)
{
    std::vector<Machine::Transition> out;
    machine.enabled(out);
    return out;
}

/** The machine's current segment keys, in segment order. */
std::vector<std::string>
keyOf(const Machine &machine)
{
    std::vector<std::string> keys(machine.numSegments());
    for (std::size_t s = 0; s < keys.size(); ++s)
        machine.segmentKey(s, keys[s]);
    return keys;
}

/** Transitions of a given kind for a given thread. */
std::vector<Machine::Transition>
of(const Machine &machine, Kind kind, int thread)
{
    std::vector<Machine::Transition> out;
    for (const auto &t : enabled(machine)) {
        if (t.kind == kind && t.thread == thread)
            out.push_back(t);
    }
    return out;
}

/** Apply the first enabled transition of the kind; assert it exists. */
void
applyOne(Machine &machine, Kind kind, int thread)
{
    auto ts = of(machine, kind, thread);
    ASSERT_FALSE(ts.empty()) << "no transition of that kind enabled";
    machine.apply(ts.front());
}

/** Drive the machine to completion issuing/satisfying/committing
 *  eagerly in deterministic order. */
void
drain(Machine &machine)
{
    int guard = 0;
    while (!machine.done()) {
        auto ts = enabled(machine);
        ASSERT_FALSE(ts.empty());
        // Prefer forgoing stray interrupts so the run terminates.
        auto forgo = std::find_if(ts.begin(), ts.end(), [](auto &t) {
            return t.kind == Kind::ForgoInterrupt;
        });
        machine.apply(forgo != ts.end() ? *forgo : ts.front());
        ASSERT_LT(++guard, 10000);
    }
}

TEST(MachineTest, IssueSatisfyCommitFlow)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x; 0:X2=7\n"
        "thread 0:\n"
        "    STR X2,[X1]\n"
        "    LDR X0,[X1]\n"
        "allowed: 0:X0=7\n");
    Machine machine(test, CoreProfile::maxRelaxed());

    // Nothing in flight: only Issue is enabled.
    auto ts = enabled(machine);
    ASSERT_EQ(ts.size(), 1u);
    EXPECT_EQ(ts[0].kind, Kind::Issue);

    applyOne(machine, Kind::Issue, 0);  // store enters the window
    applyOne(machine, Kind::Issue, 0);  // load enters the window

    // The load can satisfy by forwarding from the uncommitted store.
    ASSERT_EQ(of(machine, Kind::Satisfy, 0).size(), 1u);
    applyOne(machine, Kind::Satisfy, 0);
    applyOne(machine, Kind::Commit, 0);
    applyOne(machine, Kind::Issue, 0);  // issue "end" -> finished
    EXPECT_TRUE(machine.done());
    EXPECT_EQ(machine.finalReg(0, 0), 7u);
    EXPECT_EQ(machine.finalMemValue(test.locationId("x")), 7u);
}

TEST(MachineTest, ForwardingDisabledBlocksSatisfy)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x; 0:X2=7\n"
        "thread 0:\n"
        "    STR X2,[X1]\n"
        "    LDR X0,[X1]\n"
        "allowed: 0:X0=7\n");
    CoreProfile profile = CoreProfile::maxRelaxed();
    profile.forwarding = false;
    Machine machine(test, profile);
    applyOne(machine, Kind::Issue, 0);
    applyOne(machine, Kind::Issue, 0);

    // No forwarding: the load must wait for the commit.
    EXPECT_TRUE(of(machine, Kind::Satisfy, 0).empty());
    applyOne(machine, Kind::Commit, 0);
    EXPECT_EQ(of(machine, Kind::Satisfy, 0).size(), 1u);
}

TEST(MachineTest, DmbSyBlocksLoadUntilStoreCommits)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; *y=0; 0:X1=x; 0:X3=y; 0:X2=1\n"
        "thread 0:\n"
        "    STR X2,[X1]\n"
        "    DMB SY\n"
        "    LDR X0,[X3]\n"
        "allowed: 0:X0=0\n");
    Machine machine(test, CoreProfile::maxRelaxed());
    applyOne(machine, Kind::Issue, 0);  // store
    applyOne(machine, Kind::Issue, 0);  // dmb
    applyOne(machine, Kind::Issue, 0);  // load

    // The DMB SY is incomplete (store uncommitted): load blocked.
    EXPECT_TRUE(of(machine, Kind::Satisfy, 0).empty());
    applyOne(machine, Kind::Commit, 0);
    // Commit completed the store; the barrier auto-completes, load free.
    EXPECT_EQ(of(machine, Kind::Satisfy, 0).size(), 1u);
}

TEST(MachineTest, DmbStDoesNotBlockLoads)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; *y=0; 0:X1=x; 0:X3=y; 0:X2=1\n"
        "thread 0:\n"
        "    STR X2,[X1]\n"
        "    DMB ST\n"
        "    LDR X0,[X3]\n"
        "allowed: 0:X0=0\n");
    Machine machine(test, CoreProfile::maxRelaxed());
    applyOne(machine, Kind::Issue, 0);
    applyOne(machine, Kind::Issue, 0);
    applyOne(machine, Kind::Issue, 0);
    // DMB ST only orders stores; the (other-location) load may satisfy.
    EXPECT_EQ(of(machine, Kind::Satisfy, 0).size(), 1u);
}

TEST(MachineTest, DsbBlocksIssueUntilDrained)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x; 0:X2=1\n"
        "thread 0:\n"
        "    STR X2,[X1]\n"
        "    DSB ST\n"
        "    NOP\n"
        "allowed: *x=1\n");
    Machine machine(test, CoreProfile::maxRelaxed());
    applyOne(machine, Kind::Issue, 0);  // store
    applyOne(machine, Kind::Issue, 0);  // dsb (incomplete)
    // Issue is stalled by the incomplete DSB.
    EXPECT_TRUE(of(machine, Kind::Issue, 0).empty());
    applyOne(machine, Kind::Commit, 0);
    // Store committed -> DSB completes -> issue resumes.
    EXPECT_FALSE(of(machine, Kind::Issue, 0).empty());
}

TEST(MachineTest, LoadLoadReorderGatedByProfile)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; *y=0; 0:X1=x; 0:X3=y\n"
        "thread 0:\n"
        "    LDR X0,[X1]\n"
        "    LDR X2,[X3]\n"
        "allowed: 0:X0=0\n");
    {
        Machine machine(test, CoreProfile::cortexA53());
        applyOne(machine, Kind::Issue, 0);
        applyOne(machine, Kind::Issue, 0);
        // In-order loads: only the oldest may satisfy.
        EXPECT_EQ(of(machine, Kind::Satisfy, 0).size(), 1u);
        EXPECT_EQ(of(machine, Kind::Satisfy, 0)[0].opIndex, 0);
    }
    {
        Machine machine(test, CoreProfile::cortexA73());
        applyOne(machine, Kind::Issue, 0);
        applyOne(machine, Kind::Issue, 0);
        EXPECT_EQ(of(machine, Kind::Satisfy, 0).size(), 2u);
    }
}

TEST(MachineTest, FaultDrainsWindowBeforeRedirect)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x\n"
        "thread 0:\n"
        "    LDR X0,[X1]\n"
        "    MOV X5,#0\n"
        "    LDR X4,[X5]\n"
        "handler 0:\n"
        "    MOV X6,#1\n"
        "allowed: 0:X6=1\n");
    Machine machine(test, CoreProfile::maxRelaxed());
    applyOne(machine, Kind::Issue, 0);  // first load in flight
    applyOne(machine, Kind::Issue, 0);  // MOV X5,#0
    // The faulting access cannot issue while the window is non-empty
    // (the FEAT_ETS2 drain).
    EXPECT_TRUE(of(machine, Kind::Issue, 0).empty());
    applyOne(machine, Kind::Satisfy, 0);
    EXPECT_FALSE(of(machine, Kind::Issue, 0).empty());
    applyOne(machine, Kind::Issue, 0);  // fault -> handler
    drain(machine);
    EXPECT_EQ(machine.finalReg(0, 6), 1u);
}

TEST(MachineTest, MandatoryInterruptBlocksIssue)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x\n"
        "thread 0:\n"
        "L:\n"
        "    NOP\n"
        "handler 0:\n"
        "    MOV X3,#1\n"
        "interrupt 0 at L\n"
        "allowed: 0:X3=1\n");
    Machine machine(test, CoreProfile::cortexA53());
    // Only TakeInterrupt is enabled at the pinned point.
    auto ts = enabled(machine);
    ASSERT_EQ(ts.size(), 1u);
    EXPECT_EQ(ts[0].kind, Kind::TakeInterrupt);
    machine.apply(ts[0]);
    drain(machine);
    EXPECT_EQ(machine.finalReg(0, 3), 1u);
}

TEST(MachineTest, SgiDeliversThroughGic)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:PSTATE.EL=1; 1:X1=x\n"
        "thread 0:\n"
        "    MOV X2,#1,LSL #40\n"
        "    MSR ICC_SGI1R_EL1,X2\n"
        "thread 1:\n"
        "    NOP\n"
        "handler 1:\n"
        "    MOV X3,#1\n"
        "allowed: 1:X3=1\n");
    Machine machine(test, CoreProfile::cortexA53());
    // Before the SGI is sent, thread 1 has no interrupt to take.
    EXPECT_TRUE(of(machine, Kind::TakeInterrupt, 1).empty());
    applyOne(machine, Kind::Issue, 0);  // MOV
    applyOne(machine, Kind::Issue, 0);  // MSR SGI1R -> GIC pends on T1
    ASSERT_FALSE(of(machine, Kind::TakeInterrupt, 1).empty());
    applyOne(machine, Kind::TakeInterrupt, 1);
    drain(machine);
    EXPECT_EQ(machine.finalReg(1, 3), 1u);
}

TEST(MachineTest, StateKeyDistinguishesStates)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x; 0:X2=1\n"
        "thread 0:\n"
        "    STR X2,[X1]\n"
        "allowed: *x=1\n");
    Machine machine(test, CoreProfile::cortexA53());
    auto k0 = keyOf(machine);
    applyOne(machine, Kind::Issue, 0);
    auto k1 = keyOf(machine);
    applyOne(machine, Kind::Commit, 0);
    auto k2 = keyOf(machine);
    EXPECT_NE(k0, k1);
    EXPECT_NE(k1, k2);
    machine.reset();
    EXPECT_EQ(keyOf(machine), k0);
}

TEST(MachineTest, StateKeyRecordsPriorityMask)
{
    // PMR 16 masks default-priority (0xA0) SGIs and PMR 240 does not,
    // so states that differ only in the mask have different futures
    // and must not share a key.
    auto run = [](const char *pmr) {
        LitmusTest test = parseLitmus(
            std::string("name: t\n"
                        "init: 0:X1=") + pmr + "\n"
            "thread 0:\n"
            "    MSR ICC_PMR_EL1,X1\n"
            "    MOV X1,#0\n"
            "allowed: 0:X1=0\n");
        Machine machine(test, CoreProfile::cortexA53());
        applyOne(machine, Kind::Issue, 0);
        applyOne(machine, Kind::Issue, 0);
        return keyOf(machine);
    };
    EXPECT_NE(run("16"), run("240"));
}

TEST(MachineTest, ReleaseWaitsForAllEarlierAccesses)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; *y=0; 0:X1=x; 0:X3=y; 0:X2=1\n"
        "thread 0:\n"
        "    LDR X0,[X1]\n"
        "    STLR X2,[X3]\n"
        "allowed: 0:X0=0\n");
    Machine machine(test, CoreProfile::maxRelaxed());
    applyOne(machine, Kind::Issue, 0);
    applyOne(machine, Kind::Issue, 0);
    // The release cannot commit while the earlier load is unsatisfied,
    // even on the most relaxed profile.
    EXPECT_TRUE(of(machine, Kind::Commit, 0).empty());
    applyOne(machine, Kind::Satisfy, 0);
    EXPECT_FALSE(of(machine, Kind::Commit, 0).empty());
}

TEST(MachineTest, SatisfyAndLaterIssueCommute)
{
    // The second load takes X1 over from the first. Whether the first
    // load delivers before or after that, X1 is pending on the second
    // and holds 0, so both orders reach one state.
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=5; *y=0; 0:X2=x; 0:X3=y\n"
        "thread 0:\n"
        "    LDR X1,[X2]\n"
        "    LDR X1,[X3]\n"
        "allowed: 0:X1=0\n");
    const Machine::Transition satisfy_first_load{Kind::Satisfy, 0, 0};
    Machine satisfied_first(test, CoreProfile::maxRelaxed());
    applyOne(satisfied_first, Kind::Issue, 0);
    Machine issued_first = satisfied_first;

    satisfied_first.apply(satisfy_first_load);
    applyOne(satisfied_first, Kind::Issue, 0);
    applyOne(issued_first, Kind::Issue, 0);
    issued_first.apply(satisfy_first_load);
    EXPECT_EQ(keyOf(satisfied_first), keyOf(issued_first));
}

/**
 * Walk every state reachable from the initial one and check, for every
 * enabled transition, what op::explore relies on to re-key and restore
 * only some segments:
 *  - each segment outside moved() keeps its key across apply();
 *  - a machine holding the previous sibling successor, with the
 *    segments that sibling moved restored from the parent, reaches the
 *    same keys by the transition as a full copy of the parent;
 *  - at a final state, outcomeKey() spells "name=value;" for each
 *    FinalState field, in order, with the machine's final values;
 *  - every non-final state has an enabled transition (none is stuck).
 * Where persistentSet() is not every enabled transition, it also
 * checks the independence it rests on: the set is one enabled Issue,
 * and for every other enabled transition t, t stays enabled after the
 * Issue, the Issue stays enabled after t, and both orders reach the
 * same keys.
 * Stops at the first failure. Returns the number of states walked.
 */
std::size_t
checkSegmentInvariants(const LitmusTest &test, const CoreProfile &profile)
{
    auto joined = [](const std::vector<std::string> &keys) {
        std::string out;
        for (const std::string &key : keys)
            out += std::to_string(key.size()) + ":" + key;
        return out;
    };
    std::vector<Machine> stack{Machine(test, profile)};
    std::unordered_set<std::string> seen{joined(keyOf(stack[0]))};
    std::vector<Machine::Transition> transitions, persistent;
    const FinalState final_state(test);
    std::string outcome_key;
    auto has = [](const std::vector<Machine::Transition> &list,
                  const Machine::Transition &t) {
        return std::any_of(list.begin(), list.end(), [&](const auto &u) {
            return u.kind == t.kind && u.thread == t.thread &&
                u.opIndex == t.opIndex;
        });
    };
    while (!stack.empty()) {
        const Machine state = std::move(stack.back());
        stack.pop_back();
        if (state.done()) {
            state.outcomeKey(outcome_key);
            std::string spelled;
            for (const FinalState::Field &field : final_state.fields()) {
                spelled += field.name + "=" +
                    std::to_string(finalValue(field.place, state)) + ";";
            }
            if (outcome_key != spelled) {
                ADD_FAILURE() << test.name << ": outcomeKey " << outcome_key
                              << " != " << spelled;
                return seen.size();
            }
            continue;
        }
        const std::vector<std::string> before = keyOf(state);
        state.enabled(transitions);
        if (transitions.empty()) {
            ADD_FAILURE() << test.name << ": stuck, a non-final state "
                          << "with no enabled transition";
            return seen.size();
        }
        state.persistentSet(persistent);
        if (persistent.size() != transitions.size()) {
            const Machine::Transition issue = persistent.front();
            if (persistent.size() != 1 || issue.kind != Kind::Issue ||
                    !has(transitions, issue)) {
                ADD_FAILURE() << test.name << ": persistentSet() is not "
                              << "one enabled Issue";
                return seen.size();
            }
            for (const Machine::Transition &other : transitions) {
                if (other.kind == Kind::Issue && other.thread == issue.thread)
                    continue;
                Machine issue_first = state, other_first = state;
                issue_first.apply(issue);
                other_first.apply(other);
                const bool still_enabled =
                    has(enabled(issue_first), other) &&
                    has(enabled(other_first), issue);
                if (still_enabled) {
                    issue_first.apply(other);
                    other_first.apply(issue);
                }
                if (!still_enabled ||
                        keyOf(issue_first) != keyOf(other_first)) {
                    ADD_FAILURE() << test.name << ": "
                                  << issue.toString() << " and "
                                  << other.toString() << " do not commute";
                    return seen.size();
                }
            }
        }
        std::optional<Machine> sibling;
        for (const Machine::Transition &transition : transitions) {
            Machine next = state;
            next.apply(transition);
            const std::vector<std::string> after = keyOf(next);
            for (std::size_t s = 0; s < after.size(); ++s) {
                if (!(next.moved() >> s & 1) && after[s] != before[s]) {
                    ADD_FAILURE() << test.name << ": "
                                  << transition.toString()
                                  << " changed segment " << s
                                  << " outside moved()";
                    return seen.size();
                }
            }
            if (sibling) {
                sibling->copySegments(state, sibling->moved());
                sibling->apply(transition);
                if (keyOf(*sibling) != after) {
                    ADD_FAILURE() << test.name << ": restoring the moved "
                                  << "segments before "
                                  << transition.toString()
                                  << " differs from a full copy";
                    return seen.size();
                }
            }
            sibling = next;
            if (seen.insert(joined(after)).second)
                stack.push_back(std::move(next));
        }
    }
    return seen.size();
}

TEST(MachineSegments, InvariantsHoldOnEveryBuiltin)
{
    std::size_t states = 0;
    for (const std::string &name : TestRegistry::instance().names()) {
        states += checkSegmentInvariants(TestRegistry::instance().get(name),
                                         CoreProfile::maxRelaxed());
    }
    EXPECT_GT(states, 0u);
}

TEST(MachineSegments, InvariantsHoldOnGeneratedSeeds)
{
    const gen::HammerConfig config;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        checkSegmentInvariants(
            parseLitmus(gen::generate(seed, config.gen).source),
            CoreProfile::maxRelaxed());
    }
}

TEST(MachineSegments, CommitMovesMemoryAndGicIssueMovesGic)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:PSTATE.EL=1; 1:X1=x; 1:X2=1\n"
        "thread 0:\n"
        "    MOV X2,#1,LSL #40\n"
        "    MSR ICC_SGI1R_EL1,X2\n"
        "thread 1:\n"
        "    STR X2,[X1]\n"
        "handler 1:\n"
        "    MOV X3,#1\n"
        "allowed: 1:X3=1\n");
    Machine machine(test, CoreProfile::cortexA53());
    const Machine::SegmentMask thread0 = 1, thread1 = 2;
    const Machine::SegmentMask memory = Machine::SegmentMask{1}
        << machine.memorySegment();
    const Machine::SegmentMask gic = Machine::SegmentMask{1}
        << machine.gicSegment();
    applyOne(machine, Kind::Issue, 0);
    EXPECT_EQ(machine.moved(), thread0 | gic);
    applyOne(machine, Kind::Issue, 1);
    EXPECT_EQ(machine.moved(), thread1 | gic);
    applyOne(machine, Kind::Commit, 1);
    EXPECT_EQ(machine.moved(), thread1 | memory);
}

} // namespace
} // namespace rex
