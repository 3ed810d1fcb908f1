/**
 * @file
 * GIC model tests: the Figure 10 interrupt-handling state machine, SGI
 * routing, priorities, buffering of one extra pending instance, and both
 * EOImodes.
 */

#include <gtest/gtest.h>

#include <array>

#include "gic/cpu_interface.hh"
#include "gic/gic.hh"
#include "sem/exception.hh"

namespace rex {
namespace {

using gic::Gic;
using gic::IntState;
using gic::Redistributor;
using gic::kSpuriousIntid;

TEST(GicAutomaton, InactivePendActiveDeactivateCycle)
{
    Redistributor redist;
    EXPECT_EQ(redist.state(5), IntState::Inactive);
    EXPECT_FALSE(redist.irqPending());

    // source asserts interrupt -> Pending, delivered to the PE.
    redist.pend(5);
    EXPECT_EQ(redist.state(5), IntState::Pending);
    EXPECT_TRUE(redist.irqPending());

    // target acks by reading IAR -> Active, pending bit clears.
    EXPECT_EQ(redist.acknowledge(), 5u);
    EXPECT_EQ(redist.state(5), IntState::Active);
    EXPECT_FALSE(redist.irqPending());
    std::array<IntState, gic::kNumSgis> sgis{};
    sgis[5] = IntState::Active;
    EXPECT_EQ(redist.sgiStates(), sgis);

    // target deactivates -> Inactive.
    redist.deactivate(5);
    EXPECT_EQ(redist.state(5), IntState::Inactive);
}

TEST(GicAutomaton, ActivePendingBuffersExactlyOneInstance)
{
    Redistributor redist;
    redist.pend(7);
    EXPECT_EQ(redist.acknowledge(), 7u);

    // Re-assert while active: buffered as Active&Pending.
    redist.pend(7);
    EXPECT_EQ(redist.state(7), IntState::ActivePending);

    // Further asserts collapse (only one instance buffered).
    redist.pend(7);
    EXPECT_EQ(redist.state(7), IntState::ActivePending);

    // While active, the buffered instance is not re-delivered.
    EXPECT_FALSE(redist.irqPending());

    // Priority drop alone still does not re-deliver (not deactivated).
    redist.priorityDrop(7);
    EXPECT_FALSE(redist.irqPending());

    // Deactivation re-pends immediately (s7.4) and, with the priority
    // dropped, the instance is deliverable again.
    redist.deactivate(7);
    EXPECT_EQ(redist.state(7), IntState::Pending);
    EXPECT_TRUE(redist.irqPending());
}

TEST(GicAutomaton, SoftwareChangesPendingState)
{
    Redistributor redist;
    redist.pend(3);
    redist.clearPending(3);
    EXPECT_EQ(redist.state(3), IntState::Inactive);

    redist.setPending(3);
    EXPECT_EQ(redist.state(3), IntState::Pending);
    EXPECT_EQ(redist.acknowledge(), 3u);
    redist.pend(3);
    redist.clearPending(3);
    EXPECT_EQ(redist.state(3), IntState::Active);
}

TEST(GicAutomaton, SpuriousWhenNothingPending)
{
    Redistributor redist;
    EXPECT_EQ(redist.acknowledge(), kSpuriousIntid);
}

TEST(GicPriorities, MaskBlocksDelivery)
{
    Redistributor redist;
    redist.setPriority(4, 0xB0);
    redist.setPriorityMask(0xA0);  // only priorities < 0xA0 deliver
    redist.pend(4);
    EXPECT_FALSE(redist.irqPending());
    EXPECT_EQ(redist.acknowledge(), kSpuriousIntid);

    redist.setPriorityMask(0xFF);
    EXPECT_TRUE(redist.irqPending());
    EXPECT_EQ(redist.acknowledge(), 4u);
}

TEST(GicPriorities, RunningPriorityPreemptsLowerOnly)
{
    Redistributor redist;
    redist.setPriority(1, 0x40);  // high priority
    redist.setPriority(2, 0x80);  // low priority

    redist.pend(2);
    EXPECT_EQ(redist.acknowledge(), 2u);
    EXPECT_EQ(redist.runningPriority(), 0x80);

    // A lower-priority interrupt cannot preempt...
    redist.setPriority(3, 0x90);
    redist.pend(3);
    EXPECT_FALSE(redist.irqPending());

    // ...but a higher-priority one can.
    redist.pend(1);
    EXPECT_TRUE(redist.irqPending());
    EXPECT_EQ(redist.acknowledge(), 1u);
    EXPECT_EQ(redist.runningPriority(), 0x40);

    // Priority drops unwind in acknowledge order.
    redist.priorityDrop(1);
    EXPECT_EQ(redist.runningPriority(), 0x80);
    redist.priorityDrop(2);
    EXPECT_EQ(redist.runningPriority(), gic::kIdlePriority);
}

TEST(GicPriorities, HighestPriorityDeliveredFirst)
{
    Redistributor redist;
    redist.setPriority(10, 0x80);
    redist.setPriority(11, 0x20);
    redist.pend(10);
    redist.pend(11);
    EXPECT_EQ(redist.highestPendingDeliverable(), 11u);
    EXPECT_EQ(redist.acknowledge(), 11u);
    // After deactivating, the lower-priority one delivers... but not
    // while 11 is active (running priority 0x20 masks 0x80).
    EXPECT_FALSE(redist.irqPending());
    redist.priorityDrop(11);
    redist.deactivate(11);
    EXPECT_EQ(redist.acknowledge(), 10u);
}

TEST(GicRouting, BroadcastSgiReachesAllButSender)
{
    Gic gic(4);
    sem::SgiRequest req = sem::decodeSgi1r(std::uint64_t{1} << 40);
    EXPECT_TRUE(req.broadcast);
    gic.sendSgi(req, 1);
    EXPECT_EQ(gic.redistributor(0).state(0), IntState::Pending);
    EXPECT_EQ(gic.redistributor(1).state(0), IntState::Inactive);
    EXPECT_EQ(gic.redistributor(2).state(0), IntState::Pending);
    EXPECT_EQ(gic.redistributor(3).state(0), IntState::Pending);
}

TEST(GicRouting, TargetListSgi)
{
    Gic gic(3);
    // Target list {0, 2}, INTID 5.
    std::uint64_t value = (std::uint64_t{5} << 24) | 0b101;
    gic.sendSgi(sem::decodeSgi1r(value), 1);
    EXPECT_EQ(gic.redistributor(0).state(5), IntState::Pending);
    EXPECT_EQ(gic.redistributor(1).state(5), IntState::Inactive);
    EXPECT_EQ(gic.redistributor(2).state(5), IntState::Pending);
}

TEST(GicCpuInterface, EoiMode0DropsAndDeactivates)
{
    Gic gic(1);
    gic::CpuInterface cif(gic, 0, /*eoi_mode1=*/false);
    gic.redistributor(0).pend(6);
    EXPECT_TRUE(cif.irqPending());
    EXPECT_EQ(cif.readIar(), 6u);
    cif.writeEoir(6);
    EXPECT_EQ(gic.redistributor(0).state(6), IntState::Inactive);
    EXPECT_EQ(gic.redistributor(0).runningPriority(), gic::kIdlePriority);
}

TEST(GicCpuInterface, EoiMode1SplitsDropAndDeactivate)
{
    Gic gic(1);
    gic::CpuInterface cif(gic, 0, /*eoi_mode1=*/true);
    gic.redistributor(0).pend(6);
    EXPECT_EQ(cif.readIar(), 6u);

    // EOIR only drops priority; the interrupt stays active.
    cif.writeEoir(6);
    EXPECT_EQ(gic.redistributor(0).state(6), IntState::Active);
    EXPECT_EQ(gic.redistributor(0).runningPriority(), gic::kIdlePriority);

    // Duplicate instances are masked until deactivation (s7.1).
    gic.redistributor(0).pend(6);
    EXPECT_FALSE(cif.irqPending());

    cif.writeDir(6);
    EXPECT_EQ(gic.redistributor(0).state(6), IntState::Pending);
    EXPECT_TRUE(cif.irqPending());
}

TEST(GicCpuInterface, PmrWrite)
{
    Gic gic(1);
    gic::CpuInterface cif(gic, 0, false);
    cif.writePmr(0x10);
    gic.redistributor(0).pend(2);  // default priority 0xA0 > mask 0x10
    EXPECT_FALSE(cif.irqPending());
}

TEST(GicSgiEncoding, DecodeFields)
{
    sem::SgiRequest req =
        sem::decodeSgi1r((std::uint64_t{9} << 24) | 0xFF00);
    EXPECT_EQ(req.intid, 9u);
    EXPECT_FALSE(req.broadcast);
    EXPECT_EQ(req.targetList, 0xFF00);
    EXPECT_EQ(req.targetMask(4, 0), 0u);  // targets 8..15 out of range
}

} // namespace
} // namespace rex
