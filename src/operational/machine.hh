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
 * A scheduler (random or exhaustive; see runner.hh / explorer.hh) picks
 * among enabled transitions.
 */

#ifndef REX_OPERATIONAL_MACHINE_HH
#define REX_OPERATIONAL_MACHINE_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gic/cpu_interface.hh"
#include "gic/gic.hh"
#include "litmus/litmus.hh"
#include "operational/profile.hh"

namespace rex::op {

/**
 * The final-state projection of one run: the condition-relevant
 * registers and all memory locations.
 */
struct Outcome {
    std::map<std::string, std::uint64_t> values;

    /** Canonical string form, usable as a histogram key. */
    std::string key() const;

    /** Does this outcome satisfy the test's final condition? */
    bool satisfiesCondition(const LitmusTest &test) const;
};

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

    /** Apply one (enabled) transition. */
    void apply(const Transition &transition);

    /** True when every thread has finished and drained. */
    bool done() const;

    /** The final-state projection (valid when done()). */
    Outcome outcome() const;

    /**
     * Write a canonical byte encoding of the state into @p out (cleared
     * first), for memoisation in exhaustive exploration. Two states
     * reachable from the same initial state are equal exactly when
     * their keys are equal. The key leaves out every register and
     * sysreg the thread's code can never write, and the whole GIC when
     * no thread touches it: those fields are constant across all
     * reachable states (see docs/OPERATIONAL.md).
     */
    void stateKey(std::string &out) const;

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
        /** In-flight op index producing the register, or -1 if ready. */
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
    void completeBarriers();

    /** Find the youngest not-done earlier same-location store. */
    int forwardingSource(const ThreadState &thread, int op_index,
                         LocationId loc) const;

    /** The per-thread fields stateKey() records: bit r of regs is set
     *  when the thread's program or handler can write register r, bit
     *  s of sysregs likewise for sysreg s. */
    struct KeyMask {
        std::uint32_t regs = 0;
        std::uint32_t sysregs = 0;
    };

    void computeKeyMasks();

    /** A pointer, not a reference, so that machines copy-assign. */
    const LitmusTest *_test;
    CoreProfile _profile;

    std::vector<KeyMask> _keyMasks;
    /** Does some thread's code read or write GIC state? */
    bool _gicLive = false;

    std::vector<ThreadState> _threads;
    std::vector<std::uint64_t> _memory;
    std::vector<std::uint64_t> _memVersion;
    gic::Gic _gic;

    /** The (stateless) CPU-interface view for one PE. */
    gic::CpuInterface cpuInterface(int tid) const;
};

} // namespace rex::op

#endif // REX_OPERATIONAL_MACHINE_HH
