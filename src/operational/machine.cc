#include "operational/machine.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/logging.hh"
#include "base/strings.hh"
#include "sem/exception.hh"

namespace rex::op {

using isa::Instruction;
using isa::Opcode;
using isa::Sysreg;

namespace {

std::size_t
sysregIndex(Sysreg reg)
{
    return static_cast<std::size_t>(reg);
}

bool
barrierOrdersLoads(BarrierKind kind)
{
    switch (kind) {
      case BarrierKind::DmbLd:
      case BarrierKind::DmbSy:
      case BarrierKind::DsbLd:
      case BarrierKind::DsbSy:
        return true;
      default:
        return false;
    }
}

bool
barrierOrdersStores(BarrierKind kind)
{
    switch (kind) {
      case BarrierKind::DmbSt:
      case BarrierKind::DmbSy:
      case BarrierKind::DsbSt:
      case BarrierKind::DsbSy:
        return true;
      default:
        return false;
    }
}

bool
isDsb(BarrierKind kind)
{
    return kind == BarrierKind::DsbLd || kind == BarrierKind::DsbSt ||
        kind == BarrierKind::DsbSy;
}

} // namespace

std::string
Outcome::key() const
{
    std::string out;
    for (const auto &[name, value] : values) {
        out += name;
        out += '=';
        out += std::to_string(value);
        out += ';';
    }
    return out;
}

bool
Outcome::satisfiesCondition(const LitmusTest &test) const
{
    for (const CondAtom &atom : test.finalCond.atoms) {
        std::string name;
        if (atom.kind == CondAtom::Kind::Register) {
            name = std::to_string(atom.tid) + ":" +
                isa::regName(atom.reg);
        } else {
            name = "*" + test.locations[atom.loc];
        }
        auto it = values.find(name);
        if (it == values.end() || it->second != atom.value)
            return false;
    }
    return true;
}

gic::CpuInterface
Machine::cpuInterface(int tid) const
{
    // Safe: the interface only mutates the GIC, never itself; the const
    // cast localises the machine's logically-mutable GIC access.
    auto *self = const_cast<Machine *>(this);
    return gic::CpuInterface(self->_gic, static_cast<std::uint32_t>(tid),
                             _test->threads[static_cast<std::size_t>(
                                 tid)].eoiMode1);
}

std::string
Machine::Transition::toString() const
{
    const char *kind_name = "?";
    switch (kind) {
      case Kind::Issue:           kind_name = "issue"; break;
      case Kind::Satisfy:         kind_name = "satisfy"; break;
      case Kind::Commit:          kind_name = "commit"; break;
      case Kind::TakeInterrupt:   kind_name = "take-interrupt"; break;
      case Kind::ForgoInterrupt:  kind_name = "forgo-interrupt"; break;
    }
    return format("T%d:%s(%d)", thread, kind_name, opIndex);
}

Machine::Machine(const LitmusTest &test, const CoreProfile &profile)
    : _test(&test), _profile(profile), _gic(test.threads.size())
{
    computeKeyMasks();
    reset();
}

void
Machine::computeKeyMasks()
{
    _keyMasks.assign(_test->threads.size(), KeyMask{});
    for (std::size_t t = 0; t < _test->threads.size(); ++t) {
        const LitmusThread &spec = _test->threads[t];
        KeyMask &mask = _keyMasks[t];
        auto reg = [&](isa::RegId r) { mask.regs |= 1u << r; };
        auto sysreg = [&](Sysreg r) { mask.sysregs |= 1u << sysregIndex(r); };
        for (const isa::Program *prog : {&spec.program, &spec.handler}) {
            for (const Instruction &inst : prog->code) {
                switch (inst.op) {
                  case Opcode::MovImm:
                  case Opcode::MovReg:
                  case Opcode::Alu:
                  case Opcode::Ldr:
                  case Opcode::Ldar:
                  case Opcode::Ldapr:
                  case Opcode::Ldxr:
                    reg(inst.rd);
                    break;
                  case Opcode::Mrs:
                    reg(inst.rd);
                    if (inst.sysreg == Sysreg::ICC_IAR1_EL1)
                        _gicLive = true;
                    break;
                  case Opcode::Stxr:
                    reg(inst.rs);
                    break;
                  case Opcode::Msr:
                    sysreg(inst.sysreg);
                    if (inst.sysreg == Sysreg::ICC_SGI1R_EL1 ||
                            inst.sysreg == Sysreg::ICC_EOIR1_EL1 ||
                            inst.sysreg == Sysreg::ICC_DIR_EL1 ||
                            inst.sysreg == Sysreg::ICC_PMR_EL1) {
                        _gicLive = true;
                    }
                    break;
                  default:
                    break;
                }
                if (inst.isMemoryAccess() &&
                        (inst.mode == isa::AddrMode::PostIndex ||
                         inst.mode == isa::AddrMode::PreIndex)) {
                    reg(inst.rn);
                }
            }
        }
        // Exception entry writes the syndrome, return and fault state.
        if (!spec.handler.code.empty()) {
            sysreg(Sysreg::ESR_EL1);
            sysreg(Sysreg::ELR_EL1);
            sysreg(Sysreg::SPSR_EL1);
            sysreg(Sysreg::FAR_EL1);
        }
    }
}

void
Machine::reset()
{
    _threads.assign(_test->threads.size(), ThreadState{});
    _memory = _test->initValues;
    _memVersion.assign(_test->locations.size(), 0);
    _gic = gic::Gic(_test->threads.size());
    for (std::size_t t = 0; t < _test->threads.size(); ++t) {
        ThreadState &thread = _threads[t];
        thread.regs = _test->threads[t].initRegs;
        thread.regSource.fill(-1);
        thread.masked = _test->threads[t].initialMasked;
    }
}

bool
Machine::regReady(const ThreadState &thread, isa::RegId reg) const
{
    return thread.regSource[reg] < 0;
}

std::size_t
Machine::inFlightCount(const ThreadState &thread) const
{
    std::size_t n = 0;
    for (const InFlightOp &op : thread.ops) {
        if (!op.done)
            ++n;
    }
    return n;
}

bool
Machine::atInterruptPoint(int tid) const
{
    const ThreadState &thread = _threads[tid];
    return !thread.inHandler;
}

bool
Machine::interruptDeliverable(int tid) const
{
    const ThreadState &thread = _threads[tid];
    const LitmusThread &spec = _test->threads[tid];
    if (thread.inHandler || thread.interruptsTaken > 0 ||
            thread.forgoInterrupt) {
        return false;
    }
    if (spec.interruptAt) {
        // Mandatory externally-pended interrupt, exactly at the label.
        return !thread.finished &&
            thread.pc == spec.program.labelIndex(*spec.interruptAt);
    }
    if (thread.masked)
        return false;
    if (spec.handler.code.empty())
        return false;
    return cpuInterface(tid).irqPending();
}

bool
Machine::canIssue(int tid) const
{
    const ThreadState &thread = _threads[tid];
    const LitmusThread &spec = _test->threads[tid];
    if (thread.finished)
        return false;
    if (inFlightCount(thread) >= _profile.windowSize)
        return false;

    // A mandatory pended interrupt blocks issue at its program point.
    if (spec.interruptAt && !thread.inHandler &&
            thread.interruptsTaken == 0 &&
            thread.pc == spec.program.labelIndex(*spec.interruptAt)) {
        return false;
    }

    // An incomplete DSB blocks all later issue.
    for (const InFlightOp &op : thread.ops) {
        if (!op.done && op.kind == InFlightOp::Kind::Barrier &&
                isDsb(op.barrier)) {
            return false;
        }
    }

    const isa::Program &prog = thread.inHandler ? spec.handler
                                                : spec.program;
    std::size_t idx = thread.inHandler ? thread.handlerPc : thread.pc;
    if (idx >= prog.code.size())
        return true;  // issuing "end" finishes the thread
    const Instruction &inst = prog.code[idx];

    auto ready = [&](isa::RegId reg) { return regReady(thread, reg); };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Label:
      case Opcode::MovImm:
      case Opcode::Svc:
      case Opcode::Eret:
      case Opcode::Dmb:
      case Opcode::Dsb:
      case Opcode::Isb:
      case Opcode::MsrDaifSet:
      case Opcode::MsrDaifClr:
      case Opcode::Mrs:
        return true;
      case Opcode::MovReg:
        return ready(inst.rn);
      case Opcode::Alu:
      case Opcode::Cmp:
        return ready(inst.rn) && (inst.aluImmediate || ready(inst.rm));
      case Opcode::Cbz:
      case Opcode::Cbnz:
        return ready(inst.rd);
      case Opcode::B:
      case Opcode::BCond:
        return true;
      case Opcode::Msr:
        return ready(inst.rn);
      case Opcode::Ldp:
      case Opcode::Stp:
        panic("pair access not expanded by the assembler");
      case Opcode::Ldr:
      case Opcode::Ldar:
      case Opcode::Ldapr:
      case Opcode::Ldxr: {
        bool addr_ready = ready(inst.rn) &&
            (inst.mode != isa::AddrMode::BaseReg || ready(inst.rm));
        if (!addr_ready)
            return false;
        // A faulting access drains the window first (FEAT_ETS2).
        std::uint64_t address = thread.regs[inst.rn];
        if (inst.mode == isa::AddrMode::BaseReg)
            address += thread.regs[inst.rm];
        else if (inst.mode == isa::AddrMode::BaseImm ||
                 inst.mode == isa::AddrMode::PreIndex)
            address += static_cast<std::uint64_t>(inst.imm);
        if (!addressToLocation(address, _test->locations.size()))
            return inFlightCount(thread) == 0;
        return true;
      }
      case Opcode::Str:
      case Opcode::Stlr:
      case Opcode::Stxr: {
        bool addr_ready = ready(inst.rn) &&
            (inst.mode != isa::AddrMode::BaseReg || ready(inst.rm));
        if (!addr_ready || !ready(inst.rd))
            return false;
        std::uint64_t address = thread.regs[inst.rn];
        if (inst.mode == isa::AddrMode::BaseReg)
            address += thread.regs[inst.rm];
        else if (inst.mode == isa::AddrMode::BaseImm ||
                 inst.mode == isa::AddrMode::PreIndex)
            address += static_cast<std::uint64_t>(inst.imm);
        if (!addressToLocation(address, _test->locations.size()))
            return inFlightCount(thread) == 0;
        return true;
      }
    }
    return false;
}

int
Machine::forwardingSource(const ThreadState &thread, int op_index,
                          LocationId loc) const
{
    for (int i = op_index - 1; i >= 0; --i) {
        const InFlightOp &op = thread.ops[static_cast<std::size_t>(i)];
        if (op.kind == InFlightOp::Kind::Store && !op.done &&
                op.loc == loc) {
            return i;
        }
    }
    return -1;
}

bool
Machine::canSatisfy(int tid, int op_index) const
{
    const ThreadState &thread = _threads[tid];
    const InFlightOp &load = thread.ops[static_cast<std::size_t>(op_index)];
    if (load.kind != InFlightOp::Kind::Load || load.done)
        return false;

    for (int i = 0; i < op_index; ++i) {
        const InFlightOp &op = thread.ops[static_cast<std::size_t>(i)];
        if (op.done)
            continue;
        switch (op.kind) {
          case InFlightOp::Kind::Load:
            // Unsatisfied older load: blocked unless the profile
            // reorders loads; unsatisfied older acquire always blocks.
            if (op.acquire || op.acquirePc)
                return false;
            if (!_profile.loadLoadReorder)
                return false;
            break;
          case InFlightOp::Kind::Barrier:
            if (barrierOrdersLoads(op.barrier))
                return false;
            break;
          case InFlightOp::Kind::Store:
            // Uncommitted older release blocks an acquire ([L];po;[A]).
            if (op.release && load.acquire)
                return false;
            break;
        }
    }

    // Coherence: a program-order-later same-location load must not have
    // satisfied already (it could have read an older write).
    for (std::size_t i = static_cast<std::size_t>(op_index) + 1;
         i < thread.ops.size(); ++i) {
        const InFlightOp &op = thread.ops[i];
        if (op.kind == InFlightOp::Kind::Load && op.done &&
                op.loc == load.loc) {
            return false;
        }
    }

    // Forwarding from an uncommitted older same-location store.
    int src = forwardingSource(thread, op_index, load.loc);
    if (src >= 0) {
        // A pending store-exclusive's value is speculative: whether it
        // writes at all is decided only at commit (the monitor check),
        // and a failed STXR writes nothing, so no load may ever read
        // its value. The load waits for the commit and then reads
        // memory, which is correct on both the success and the failure
        // path.
        if (thread.ops[static_cast<std::size_t>(src)].exclusive)
            return false;
        if (!_profile.forwarding)
            return false;
    }
    return true;
}

bool
Machine::canCommit(int tid, int op_index) const
{
    const ThreadState &thread = _threads[tid];
    const InFlightOp &store =
        thread.ops[static_cast<std::size_t>(op_index)];
    if (store.kind != InFlightOp::Kind::Store || store.done)
        return false;

    for (int i = 0; i < op_index; ++i) {
        const InFlightOp &op = thread.ops[static_cast<std::size_t>(i)];
        if (op.done)
            continue;
        switch (op.kind) {
          case InFlightOp::Kind::Load:
            if (op.acquire || op.acquirePc)
                return false;
            // An unsatisfied older same-location load must read first.
            if (op.loc == store.loc)
                return false;
            if (store.release)
                return false;
            if (!_profile.loadStoreReorder)
                return false;
            break;
          case InFlightOp::Kind::Store:
            if (op.loc == store.loc)
                return false;  // same-location stores commit in order
            if (store.release)
                return false;
            if (!_profile.storeStoreReorder)
                return false;
            break;
          case InFlightOp::Kind::Barrier:
            // DMB ST orders later stores; DMB LD orders *all* later
            // accesses ([dmbld]; po; [R|W]); SY/DSB order both. Hence
            // any incomplete earlier barrier blocks a commit.
            return false;
        }
    }
    return true;
}

void
Machine::enabled(std::vector<Transition> &out) const
{
    out.clear();
    for (int t = 0; t < static_cast<int>(_threads.size()); ++t) {
        const ThreadState &thread = _threads[static_cast<std::size_t>(t)];
        if (canIssue(t))
            out.push_back({Transition::Kind::Issue, t, -1});
        for (int i = 0; i < static_cast<int>(thread.ops.size()); ++i) {
            if (canSatisfy(t, i))
                out.push_back({Transition::Kind::Satisfy, t, i});
            if (canCommit(t, i))
                out.push_back({Transition::Kind::Commit, t, i});
        }
        if (atInterruptPoint(t) && interruptDeliverable(t)) {
            out.push_back({Transition::Kind::TakeInterrupt, t, -1});
            // Only SGIs may be forgone (the scheduler models delivery
            // that arrives after the program completes); an explicit
            // "interrupt at" is mandatory.
            if (!_test->threads[static_cast<std::size_t>(t)].interruptAt &&
                    thread.finished) {
                out.push_back({Transition::Kind::ForgoInterrupt, t, -1});
            }
        }
    }
}

void
Machine::enterHandler(ThreadState &thread, std::uint64_t return_pc)
{
    thread.sysregs[sysregIndex(Sysreg::ELR_EL1)] = return_pc;
    thread.sysregs[sysregIndex(Sysreg::SPSR_EL1)] =
        thread.masked ? 1 : 0;
    thread.savedMasked = thread.masked;
    thread.masked = true;
    thread.inHandler = true;
    thread.handlerPc = 0;
    thread.finished = false;
}

void
Machine::takeFault(int tid, std::uint64_t address)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    if (_test->threads[static_cast<std::size_t>(tid)].handler.code.empty())
        fatal("operational: fault with no handler in " + _test->name);
    thread.sysregs[sysregIndex(Sysreg::ESR_EL1)] = sem::syndromeFor(
        ExceptionClass::DataAbortTranslation, 0);
    thread.sysregs[sysregIndex(Sysreg::FAR_EL1)] = address;
    enterHandler(thread, sem::preferredReturn(
        ExceptionClass::DataAbortTranslation, thread.pc));
}

void
Machine::takeInterrupt(int tid)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    if (_test->threads[static_cast<std::size_t>(tid)].handler.code.empty())
        fatal("operational: interrupt with no handler in " + _test->name);
    ++thread.interruptsTaken;
    enterHandler(thread, thread.pc);
}

void
Machine::issue(int tid)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    const LitmusThread &spec = _test->threads[static_cast<std::size_t>(tid)];
    const isa::Program &prog = thread.inHandler ? spec.handler
                                                : spec.program;
    std::size_t idx = thread.inHandler ? thread.handlerPc : thread.pc;

    if (idx >= prog.code.size()) {
        // Falling off the handler's end terminates the thread; falling
        // off the program's end finishes it (in-flight ops may drain).
        thread.finished = true;
        thread.inHandler = false;
        return;
    }

    const Instruction &inst = prog.code[idx];
    auto advance = [&]() {
        if (thread.inHandler)
            ++thread.handlerPc;
        else
            ++thread.pc;
    };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Label:
        advance();
        return;

      case Opcode::MovImm:
        thread.regs[inst.rd] =
            static_cast<std::uint64_t>(inst.imm) << inst.shift;
        thread.regSource[inst.rd] = -1;
        advance();
        return;

      case Opcode::MovReg:
        thread.regs[inst.rd] = thread.regs[inst.rn];
        thread.regSource[inst.rd] = -1;
        advance();
        return;

      case Opcode::Alu: {
        std::uint64_t lhs = thread.regs[inst.rn];
        std::uint64_t rhs = inst.aluImmediate
            ? static_cast<std::uint64_t>(inst.imm)
            : thread.regs[inst.rm];
        std::uint64_t result = 0;
        switch (inst.alu) {
          case isa::AluOp::Add: result = lhs + rhs; break;
          case isa::AluOp::Sub: result = lhs - rhs; break;
          case isa::AluOp::Eor: result = lhs ^ rhs; break;
          case isa::AluOp::And: result = lhs & rhs; break;
          case isa::AluOp::Orr: result = lhs | rhs; break;
        }
        thread.regs[inst.rd] = result;
        thread.regSource[inst.rd] = -1;
        advance();
        return;
      }

      case Opcode::Cmp:
        thread.cmpLhs = static_cast<std::int64_t>(thread.regs[inst.rn]);
        thread.cmpRhs = inst.aluImmediate
            ? inst.imm
            : static_cast<std::int64_t>(thread.regs[inst.rm]);
        advance();
        return;

      case Opcode::BCond: {
        bool taken =
            isa::condHoldsFor(inst.cond, thread.cmpLhs, thread.cmpRhs);
        if (taken) {
            std::size_t target = prog.labelIndex(inst.label);
            if (thread.inHandler)
                thread.handlerPc = target;
            else
                thread.pc = target;
        } else {
            advance();
        }
        return;
      }

      case Opcode::Cbz:
      case Opcode::Cbnz: {
        bool zero = thread.regs[inst.rd] == 0;
        bool taken = inst.op == Opcode::Cbz ? zero : !zero;
        if (taken) {
            std::size_t target = prog.labelIndex(inst.label);
            if (thread.inHandler)
                thread.handlerPc = target;
            else
                thread.pc = target;
        } else {
            advance();
        }
        return;
      }

      case Opcode::B: {
        std::size_t target = prog.labelIndex(inst.label);
        if (thread.inHandler)
            thread.handlerPc = target;
        else
            thread.pc = target;
        return;
      }

      case Opcode::Dmb:
      case Opcode::Dsb:
      case Opcode::Isb: {
        InFlightOp op;
        op.kind = InFlightOp::Kind::Barrier;
        op.barrier = inst.barrier;
        // ISB is a no-op here: the machine never speculates.
        op.done = inst.op == Opcode::Isb;
        thread.ops.push_back(op);
        advance();
        completeBarriers();
        return;
      }

      case Opcode::Svc: {
        rexAssert(!thread.inHandler,
                  "operational: SVC inside handler unsupported");
        if (spec.handler.code.empty())
            fatal("operational: SVC with no handler in " + _test->name);
        thread.sysregs[sysregIndex(Sysreg::ESR_EL1)] =
            sem::syndromeFor(ExceptionClass::Svc, 0);
        enterHandler(thread, thread.pc + 1);
        return;
      }

      case Opcode::Eret: {
        rexAssert(thread.inHandler, "operational: ERET outside handler");
        std::uint64_t target =
            thread.sysregs[sysregIndex(Sysreg::ELR_EL1)];
        if (target > spec.program.code.size())
            fatal("operational: ERET to bad address in " + _test->name);
        thread.inHandler = false;
        thread.pc = static_cast<std::size_t>(target);
        thread.masked = thread.savedMasked;
        return;
      }

      case Opcode::Mrs: {
        std::uint64_t value;
        if (inst.sysreg == Sysreg::ICC_IAR1_EL1)
            value = cpuInterface(tid).readIar();
        else
            value = thread.sysregs[sysregIndex(inst.sysreg)];
        thread.regs[inst.rd] = value;
        thread.regSource[inst.rd] = -1;
        advance();
        return;
      }

      case Opcode::Msr: {
        std::uint64_t value = thread.regs[inst.rn];
        switch (inst.sysreg) {
          case Sysreg::ICC_SGI1R_EL1:
            _gic.sendSgi(sem::decodeSgi1r(value),
                         static_cast<std::uint32_t>(tid));
            break;
          case Sysreg::ICC_EOIR1_EL1:
            cpuInterface(tid).writeEoir(value);
            break;
          case Sysreg::ICC_DIR_EL1:
            cpuInterface(tid).writeDir(value);
            break;
          case Sysreg::ICC_PMR_EL1:
            cpuInterface(tid).writePmr(value);
            break;
          default:
            thread.sysregs[sysregIndex(inst.sysreg)] = value;
            break;
        }
        advance();
        return;
      }

      case Opcode::MsrDaifSet:
      case Opcode::MsrDaifClr:
        if (inst.imm & 0x2)
            thread.masked = inst.op == Opcode::MsrDaifSet;
        advance();
        return;

      case Opcode::Ldp:
      case Opcode::Stp:
        panic("pair access not expanded by the assembler");

      case Opcode::Ldr:
      case Opcode::Ldar:
      case Opcode::Ldapr:
      case Opcode::Ldxr:
      case Opcode::Str:
      case Opcode::Stlr:
      case Opcode::Stxr: {
        std::uint64_t address = thread.regs[inst.rn];
        if (inst.mode == isa::AddrMode::BaseReg)
            address += thread.regs[inst.rm];
        else if (inst.mode == isa::AddrMode::BaseImm ||
                 inst.mode == isa::AddrMode::PreIndex)
            address += static_cast<std::uint64_t>(inst.imm);

        auto loc = addressToLocation(address, _test->locations.size());
        if (!loc) {
            // Faulting access: no writeback (§3.4), handler entry.
            takeFault(tid, address);
            return;
        }

        InFlightOp op;
        op.loc = *loc;
        if (inst.isLoad()) {
            op.kind = InFlightOp::Kind::Load;
            op.destReg = inst.rd;
            op.acquire = inst.op == Opcode::Ldar;
            op.acquirePc = inst.op == Opcode::Ldapr;
            op.exclusive = inst.op == Opcode::Ldxr;
            if (inst.rd != isa::kZeroReg) {
                thread.regSource[inst.rd] =
                    static_cast<int>(thread.ops.size());
            }
        } else {
            op.kind = InFlightOp::Kind::Store;
            op.storeValue = thread.regs[inst.rd];
            op.release = inst.op == Opcode::Stlr;
            op.exclusive = inst.op == Opcode::Stxr;
            if (inst.op == Opcode::Stxr) {
                op.statusReg = inst.rs;
                if (inst.rs != isa::kZeroReg) {
                    thread.regSource[inst.rs] =
                        static_cast<int>(thread.ops.size());
                }
            }
        }
        thread.ops.push_back(op);

        // Post/pre-index writeback (only reached when non-faulting).
        if (inst.mode == isa::AddrMode::PostIndex)
            thread.regs[inst.rn] += static_cast<std::uint64_t>(inst.imm);
        else if (inst.mode == isa::AddrMode::PreIndex)
            thread.regs[inst.rn] = address;
        advance();
        return;
      }
    }
    panic("operational: unhandled opcode at issue");
}

void
Machine::satisfy(int tid, int op_index)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    InFlightOp &load = thread.ops[static_cast<std::size_t>(op_index)];

    int src = forwardingSource(thread, op_index, load.loc);
    std::uint64_t value = src >= 0
        ? thread.ops[static_cast<std::size_t>(src)].storeValue
        : _memory[load.loc];

    load.loadedValue = value;
    load.done = true;
    if (load.destReg != isa::kZeroReg &&
            thread.regSource[load.destReg] == op_index) {
        thread.regs[load.destReg] = value;
        thread.regSource[load.destReg] = -1;
    }
    if (load.exclusive)
        thread.monitor = {{load.loc, _memVersion[load.loc]}};
    completeBarriers();
}

void
Machine::commit(int tid, int op_index)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    InFlightOp &store = thread.ops[static_cast<std::size_t>(op_index)];

    bool success = true;
    if (store.exclusive) {
        success = thread.monitor && thread.monitor->first == store.loc &&
            _memVersion[store.loc] == thread.monitor->second;
        thread.monitor.reset();
        if (store.statusReg != isa::kZeroReg &&
                thread.regSource[store.statusReg] == op_index) {
            thread.regs[store.statusReg] = success ? 0 : 1;
            thread.regSource[store.statusReg] = -1;
        }
    }
    if (success) {
        _memory[store.loc] = store.storeValue;
        ++_memVersion[store.loc];
    }
    store.done = true;
    completeBarriers();
}

void
Machine::completeBarriers()
{
    // Barriers complete eagerly once their constraints hold; completion
    // has no side effect beyond enabling later operations, so eager
    // completion preserves the reachable-outcome set.
    bool changed = true;
    while (changed) {
        changed = false;
        for (ThreadState &thread : _threads) {
            for (std::size_t i = 0; i < thread.ops.size(); ++i) {
                InFlightOp &op = thread.ops[i];
                if (op.done || op.kind != InFlightOp::Kind::Barrier)
                    continue;
                bool ok = true;
                for (std::size_t j = 0; j < i && ok; ++j) {
                    const InFlightOp &prev = thread.ops[j];
                    if (prev.done)
                        continue;
                    if (prev.kind == InFlightOp::Kind::Load &&
                            barrierOrdersLoads(op.barrier)) {
                        ok = false;
                    }
                    if (prev.kind == InFlightOp::Kind::Store &&
                            barrierOrdersStores(op.barrier)) {
                        ok = false;
                    }
                    if (prev.kind == InFlightOp::Kind::Barrier)
                        ok = false;
                }
                if (ok) {
                    op.done = true;
                    changed = true;
                }
            }
        }
    }
}

void
Machine::apply(const Transition &transition)
{
    switch (transition.kind) {
      case Transition::Kind::Issue:
        issue(transition.thread);
        return;
      case Transition::Kind::Satisfy:
        satisfy(transition.thread, transition.opIndex);
        return;
      case Transition::Kind::Commit:
        commit(transition.thread, transition.opIndex);
        return;
      case Transition::Kind::TakeInterrupt:
        takeInterrupt(transition.thread);
        return;
      case Transition::Kind::ForgoInterrupt:
        _threads[static_cast<std::size_t>(transition.thread)]
            .forgoInterrupt = true;
        return;
    }
    panic("operational: unhandled transition kind");
}

bool
Machine::done() const
{
    for (int t = 0; t < static_cast<int>(_threads.size()); ++t) {
        const ThreadState &thread = _threads[static_cast<std::size_t>(t)];
        if (!thread.finished)
            return false;
        if (inFlightCount(thread) > 0)
            return false;
        if (interruptDeliverable(t))
            return false;  // must be taken or forgone first
    }
    return true;
}

Outcome
Machine::outcome() const
{
    Outcome out;
    for (const CondAtom &atom : _test->finalCond.atoms) {
        if (atom.kind != CondAtom::Kind::Register)
            continue;
        const ThreadState &thread =
            _threads[static_cast<std::size_t>(atom.tid)];
        out.values[std::to_string(atom.tid) + ":" +
                   isa::regName(atom.reg)] = thread.regs[atom.reg];
    }
    for (LocationId loc = 0; loc < _test->locations.size(); ++loc)
        out.values["*" + _test->locations[loc]] = _memory[loc];
    return out;
}

void
Machine::stateKey(std::string &out) const
{
    // Size the buffer for the largest key once, then write each block
    // through a raw cursor. Variable-length parts are preceded by their
    // length, so the encoding is injective.
    constexpr std::size_t kThreadBytes = 8 * sizeof(std::uint64_t) +
        isa::kNumRegs * (sizeof(std::uint64_t) + sizeof(std::int32_t)) +
        isa::kNumSysregs * sizeof(std::uint64_t);
    constexpr std::size_t kOpBytes = 2 * sizeof(std::uint64_t);
    std::size_t bound = 2 * _memory.size() * sizeof(std::uint64_t);
    for (const ThreadState &thread : _threads)
        bound += kThreadBytes + thread.ops.size() * kOpBytes;
    if (_gicLive) {
        for (std::size_t pe = 0; pe < _gic.numPes(); ++pe) {
            bound += gic::kNumSgis + 3 * sizeof(std::uint32_t) +
                _gic.redistributor(pe).priorityStack().size();
        }
    }
    out.resize(bound);
    char *cursor = out.data();
    auto put = [&cursor](const void *data, std::size_t bytes) {
        if (bytes > 0)  // data may be null for an empty vector
            std::memcpy(cursor, data, bytes);
        cursor += bytes;
    };

    for (std::size_t t = 0; t < _threads.size(); ++t) {
        const ThreadState &thread = _threads[t];
        const KeyMask mask = _keyMasks[t];

        const std::uint64_t flags =
            (std::uint64_t{thread.inHandler} << 0) |
            (std::uint64_t{thread.finished} << 1) |
            (std::uint64_t{thread.masked} << 2) |
            (std::uint64_t{thread.savedMasked} << 3) |
            (std::uint64_t{thread.forgoInterrupt} << 4) |
            (std::uint64_t{thread.monitor.has_value()} << 5) |
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(thread.interruptsTaken)) << 8);
        const std::uint64_t scalars[] = {
            thread.pc,
            thread.handlerPc,
            static_cast<std::uint64_t>(thread.cmpLhs),
            static_cast<std::uint64_t>(thread.cmpRhs),
            flags,
            thread.monitor ? thread.monitor->first : 0,
            thread.monitor ? thread.monitor->second : 0,
            thread.ops.size(),
        };
        put(scalars, sizeof(scalars));

        // Registers and sysregs the thread can write; the rest keep
        // their initial values in every reachable state.
        for (std::uint32_t m = mask.regs; m; m &= m - 1) {
            const int r = std::countr_zero(m);
            const std::int32_t source = thread.regSource[r];
            put(&thread.regs[r], sizeof(std::uint64_t));
            put(&source, sizeof(source));
        }
        for (std::uint32_t m = mask.sysregs; m; m &= m - 1)
            put(&thread.sysregs[std::countr_zero(m)], sizeof(std::uint64_t));

        // One word of op attributes, each field in its own bits (the
        // three kinds take two), then one value: a load never sets
        // storeValue and a store never sets loadedValue (both stay 0).
        for (const InFlightOp &op : thread.ops) {
            const std::uint64_t record[] = {
                static_cast<std::uint64_t>(op.kind) |
                    (std::uint64_t{op.done} << 2) |
                    (std::uint64_t{op.acquire} << 3) |
                    (std::uint64_t{op.acquirePc} << 4) |
                    (std::uint64_t{op.release} << 5) |
                    (std::uint64_t{op.exclusive} << 6) |
                    (static_cast<std::uint64_t>(op.barrier) << 8) |
                    (std::uint64_t{op.destReg} << 16) |
                    (std::uint64_t{op.statusReg} << 24) |
                    (std::uint64_t{op.loc} << 32),
                op.kind == InFlightOp::Kind::Store ? op.storeValue
                                                   : op.loadedValue,
            };
            put(record, sizeof(record));
        }
    }
    put(_memory.data(), _memory.size() * sizeof(std::uint64_t));
    put(_memVersion.data(), _memVersion.size() * sizeof(std::uint64_t));

    // GIC state changes only through the GIC system registers.
    if (_gicLive) {
        for (std::size_t pe = 0; pe < _gic.numPes(); ++pe) {
            const gic::Redistributor &redist = _gic.redistributor(pe);
            const std::array<gic::IntState, gic::kNumSgis> states =
                redist.sgiStates();
            const std::vector<std::uint8_t> &drops = redist.priorityStack();
            const std::uint32_t priorities[] = {
                redist.priorityMask(),
                redist.runningPriority(),
                static_cast<std::uint32_t>(drops.size()),
            };
            put(states.data(), sizeof(states));
            put(priorities, sizeof(priorities));
            put(drops.data(), drops.size());
        }
    }
    out.resize(static_cast<std::size_t>(cursor - out.data()));
}

} // namespace rex::op
