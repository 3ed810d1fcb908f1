/**
 * @file
 * Transition-level unit tests for the operational machine: issue /
 * satisfy / commit mechanics, forwarding, barrier blocking, DSB issue
 * stalls, fault draining, interrupt transitions, and profile gating.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "litmus/parser.hh"
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

/** The machine's current state key. */
std::string
keyOf(const Machine &machine)
{
    std::string key;
    machine.stateKey(key);
    return key;
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
    EXPECT_EQ(machine.outcome().values.at("0:X0"), 7u);
    EXPECT_EQ(machine.outcome().values.at("*x"), 7u);
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
    EXPECT_EQ(machine.outcome().values.at("0:X6"), 1u);
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
    EXPECT_EQ(machine.outcome().values.at("0:X3"), 1u);
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
    EXPECT_EQ(machine.outcome().values.at("1:X3"), 1u);
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
    std::string k0 = keyOf(machine);
    applyOne(machine, Kind::Issue, 0);
    std::string k1 = keyOf(machine);
    applyOne(machine, Kind::Commit, 0);
    std::string k2 = keyOf(machine);
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

} // namespace
} // namespace rex
