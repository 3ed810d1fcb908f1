/**
 * @file
 * The abstract-microarchitectural operational machine.
 *
 * This is the repository's substitute for the paper's hardware testing:
 * an executable machine in the style of Fig. 1/Fig. 3's tree of FDX
 * instances, restricted to non-speculative issue (it never rolls back),
 * with out-of-order load satisfaction, store buffering, forwarding, and
 * exception/interrupt machinery. A CoreProfile controls which
 * reorderings are performed.
 *
 * Machine transitions:
 *  - Issue: fetch-decode-execute the next instruction in (program-order)
 *    issue; register ops complete at issue, memory ops enter the
 *    in-flight window;
 *  - Satisfy: an eligible in-flight load reads (memory or forwarded);
 *  - Commit: an eligible in-flight store propagates to memory;
 *  - TakeInterrupt / ForgoInterrupt: deliverable IRQs at FDX boundaries.
 *
 * Synchronous faults drain the window before redirecting (the
 * FEAT_ETS2 behaviour, §3.3); SVC/ERET redirect without draining, which
 * is what lets accesses reorder across exception boundaries (§3.2).
 *
 * A scheduler picks among the enabled transitions: the random runner
 * (runner.hh) among all of them, exhaustive exploration (explorer.hh)
 * among a persistent set, which is one thread's Issue alone whenever
 * that suffices (persistentSet()).
 */

#ifndef REX_OPERATIONAL_MACHINE_HH
#define REX_OPERATIONAL_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gic/cpu_interface.hh"
#include "gic/gic.hh"
#include "litmus/litmus.hh"
#include "operational/profile.hh"

namespace rex::op {

/** The operational machine for one litmus test run. */
class Machine
{
  public:
    Machine(const LitmusTest &test, const CoreProfile &profile);

    /** One schedulable transition. */
    struct Transition {
        enum class Kind : std::uint8_t {
            Issue,
            Satisfy,
            Commit,
            TakeInterrupt,
            ForgoInterrupt,
        };
        Kind kind = Kind::Issue;
        int thread = 0;
        int opIndex = -1;  //!< for Satisfy/Commit

        std::string toString() const;
    };

    /** Reset to the initial state. */
    void reset();

    /** Replace the contents of @p out with all transitions enabled in
     *  the current state (the caller's vector keeps its capacity). */
    void enabled(std::vector<Transition> &out) const;

    /**
     * Replace the contents of @p out with the transitions exhaustive
     * exploration expands in the current state: a persistent set
     * (Godefroid, "Partial-Order Methods for the Verification of
     * Concurrent Systems", LNCS 1032, 1996, Def. 4.1). When no thread's
     * code touches the GIC and some thread can issue, that is the
     * Issue of the lowest-numbered such thread alone; otherwise it is
     * every enabled transition.
     *
     * {Issue of thread i} is persistent because Issue_i is independent
     * of every transition that can run before it:
     *  - Other threads. Issue reads and writes only thread i's segment:
     *    with no live GIC no issued instruction touches the GIC. No
     *    other thread's transition reads or writes that segment.
     *  - Its own thread. Satisfy and Commit of i's in-flight ops never
     *    disable Issue_i: they only make registers ready, shrink the
     *    window and complete barriers. Issue_i never disables them: it
     *    appends the youngest op, and no older op waits on a younger
     *    one; a faulting access issues only with an empty window. Both
     *    orders reach the same state, since a register whose producer
     *    is in flight holds 0 whichever op owes it.
     *  - Interrupts. With no live GIC nothing is ever pending, so the
     *    only interrupt is the mandatory "interrupt at" one, and it is
     *    deliverable exactly where Issue_i is blocked.
     * No transition outside the set disables Issue_i, so every state
     * with no enabled transition, and with it every final state, stays
     * reachable (ibid., Thm. 4.3): the outcome set and condition
     * reachability are those of the full graph. See docs/OPERATIONAL.md.
     */
    void persistentSet(std::vector<Transition> &out) const;

    /** Apply one (enabled) transition. */
    void apply(const Transition &transition);

    /** True when every thread has finished and drained. */
    bool done() const;

    /** Does the final state satisfy the test's condition (valid when
     *  done())? */
    bool conditionHolds() const;

    /** Write the outcome key (FinalState::key()) of the final state
     *  into @p out (valid when done()). */
    void outcomeKey(std::string &out) const;

    /** The final-state source FinalState reads (valid when done()). */
    std::uint64_t
    finalReg(ThreadId tid, isa::RegId reg) const
    {
        return _threads[static_cast<std::size_t>(tid)].regs[reg];
    }
    std::uint64_t finalMemValue(LocationId loc) const { return _memory[loc]; }

    /**
     * The state is split into segments for exhaustive exploration: one
     * per thread (segments 0 to threads - 1), then memory with its write
     * versions, then the GIC. A segment mask has bit s set for segment
     * s; threads are capped at kMaxThreads, so every mask fits.
     */
    using SegmentMask = std::uint64_t;
    static_assert(kMaxThreads + 2 <= 64, "segment masks need a bit each");

    std::size_t numSegments() const { return _threads.size() + 2; }
    std::size_t memorySegment() const { return _threads.size(); }
    std::size_t gicSegment() const { return _threads.size() + 1; }

    /**
     * Write a canonical byte encoding of segment @p segment into @p out
     * (cleared first), for memoisation in exhaustive exploration. Two
     * states reachable from the same initial state are equal exactly
     * when every segment's key is equal. The keys leave out every
     * register and sysreg the thread's code can never write, and the
     * whole GIC when no thread touches it: those fields are constant
     * across all reachable states (see docs/OPERATIONAL.md).
     */
    void segmentKey(std::size_t segment, std::string &out) const;

    /** The segments the last apply() may have changed: the
     *  transition's thread, memory on a commit, and the GIC on an issue
     *  when some thread's code touches it. Every other segment is
     *  exactly as it was before the transition. */
    SegmentMask moved() const { return _moved; }

    /** Copy the segments in @p mask from @p from, a machine for the
     *  same test and profile. */
    void copySegments(const Machine &from, SegmentMask mask);

  private:
    /** One in-flight memory operation. */
    struct InFlightOp {
        enum class Kind : std::uint8_t { Load, Store, Barrier };
        Kind kind = Kind::Load;
        LocationId loc = 0;
        std::uint64_t storeValue = 0;
        isa::RegId destReg = isa::kZeroReg;  //!< load target / STXR status
        BarrierKind barrier = BarrierKind::DmbSy;
        bool acquire = false;
        bool acquirePc = false;
        bool release = false;
        bool exclusive = false;
        isa::RegId statusReg = isa::kZeroReg;  //!< STXR status register
        bool done = false;
        std::uint64_t loadedValue = 0;
    };

    /** One simulated hardware thread. */
    struct ThreadState {
        std::size_t pc = 0;
        bool inHandler = false;
        std::size_t handlerPc = 0;
        bool finished = false;

        std::array<std::uint64_t, isa::kNumRegs> regs{};
        /** In-flight op index producing the register, or -1 if ready.
         *  A register that is not ready holds 0. */
        std::array<int, isa::kNumRegs> regSource{};

        std::array<std::uint64_t, isa::kNumSysregs> sysregs{};

        bool masked = false;
        bool savedMasked = false;

        /** NZCV state: the last comparison's operands. */
        std::int64_t cmpLhs = 0;
        std::int64_t cmpRhs = 0;
        int interruptsTaken = 0;
        bool forgoInterrupt = false;

        /** Exclusive monitor: location and memory version at LDXR. */
        std::optional<std::pair<LocationId, std::uint64_t>> monitor;

        std::vector<InFlightOp> ops;
    };

    bool regReady(const ThreadState &thread, isa::RegId reg) const;
    std::size_t inFlightCount(const ThreadState &thread) const;

    bool canIssue(int tid) const;
    bool canSatisfy(int tid, int op_index) const;
    bool canCommit(int tid, int op_index) const;
    bool atInterruptPoint(int tid) const;
    bool interruptDeliverable(int tid) const;

    void issue(int tid);
    void satisfy(int tid, int op_index);
    void commit(int tid, int op_index);
    void takeInterrupt(int tid);

    void enterHandler(ThreadState &thread, std::uint64_t return_pc);
    void takeFault(int tid, std::uint64_t address);
    void completeBarriers(ThreadState &thread);
    /** Jump to the target of the branch at @p idx of the code the
     *  thread is running (program or handler). */
    void branchTo(int tid, std::size_t idx);

    /** Find the youngest not-done earlier same-location store. */
    int forwardingSource(const ThreadState &thread, int op_index,
                         LocationId loc) const;

    /** What the Machine constructor derives once from the test. Every
     *  copy of the machine shares it. */
    struct Layout {
        /** The per-thread fields segmentKey() records: bit r of regs is
         *  set when the thread's program or handler can write register
         *  r, bit s of sysregs likewise for sysreg s. */
        struct KeyMask {
            std::uint32_t regs = 0;
            std::uint32_t sysregs = 0;
            /** Bytes of the thread's key before its op records. */
            std::size_t fixedBytes = 0;
        };

        /** One thread's labels, resolved to instruction indices. */
        struct Labels {
            /** Branch target by instruction index (unused for other
             *  instructions), of the program and of the handler. */
            std::vector<std::size_t> programTargets;
            std::vector<std::size_t> handlerTargets;
            /** The pc of the thread's mandatory "interrupt at" label. */
            std::optional<std::size_t> interruptPc;
        };

        explicit Layout(const LitmusTest &test) : finalState(test) {}

        std::vector<KeyMask> keyMasks;
        std::vector<Labels> labels;
        FinalState finalState;
        /** Does some thread's code read or write GIC state? */
        bool gicLive = false;
    };

    static std::shared_ptr<const Layout> layOut(const LitmusTest &test);

    /** A pointer, not a reference, so that machines copy-assign. */
    const LitmusTest *_test;
    CoreProfile _profile;
    std::shared_ptr<const Layout> _layout;

    std::vector<ThreadState> _threads;
    std::vector<std::uint64_t> _memory;
    std::vector<std::uint64_t> _memVersion;
    gic::Gic _gic;
    SegmentMask _moved = 0;

    /** The (stateless) CPU-interface view for one PE. */
    gic::CpuInterface cpuInterface(int tid) const;
};

} // namespace rex::op

#endif // REX_OPERATIONAL_MACHINE_HH
