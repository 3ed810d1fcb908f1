#include "catc/exec.hh"

#include <algorithm>

#include "base/logging.hh"
#include "engine/governor.hh"

namespace rex::catc {

FoldPlan::FoldPlan(const Program &program) : _program(&program)
{
    rexAssert(program.kinds.size() == program.ops.size(),
              "catc: FoldPlan needs a verify()'d program");

    const std::size_t nOps = program.ops.size();
    _isConst.assign(nOps, 0);

    // Witness-dependence: an op depends on the witness iff it loads
    // rf/co/interrupt or any operand does. Everything else is fixed
    // within a trace combination and folds at FoldedProgram time.
    std::uint32_t operands[3];
    for (std::size_t i = 0; i < nOps; ++i) {
        const Op &op = program.ops[i];
        bool witness = false;
        if (op.code == OpCode::LoadInput) {
            witness = inputIsWitness(static_cast<Input>(op.a));
        } else {
            const int count = operandsOf(op, operands);
            for (int j = 0; j < count; ++j)
                witness = witness || !_isConst[operands[j]];
        }
        if (witness) {
            ++_liveOps;
            continue;
        }
        _isConst[i] = 1;
        _constOps.push_back(static_cast<std::uint32_t>(i));
    }

    // Checks over constant registers resolve at fold time — their ops
    // never run per candidate (the folding pass's dead-code
    // elimination). The rest get the ascending list of live ops they
    // transitively need.
    const std::size_t nChecks = program.checks.size();
    _checkConst.assign(nChecks, 0);
    _deps.resize(nChecks);
    std::vector<std::uint8_t> seen(nOps);
    std::vector<std::uint32_t> stack;
    for (std::size_t i = 0; i < nChecks; ++i) {
        const Check &check = program.checks[i];
        if (_isConst[check.reg]) {
            _checkConst[i] = 1;
            ++_constChecks;
            continue;
        }
        std::fill(seen.begin(), seen.end(), 0);
        stack.assign(1, check.reg);
        seen[check.reg] = 1;
        while (!stack.empty()) {
            const std::uint32_t reg = stack.back();
            stack.pop_back();
            _deps[i].push_back(reg);
            const int count = operandsOf(program.ops[reg], operands);
            for (int j = 0; j < count; ++j) {
                const std::uint32_t dep = operands[j];
                if (!_isConst[dep] && !seen[dep]) {
                    seen[dep] = 1;
                    stack.push_back(dep);
                }
            }
        }
        std::sort(_deps[i].begin(), _deps[i].end());
    }
}

FoldedProgram::FoldedProgram(const FoldPlan &plan,
                             const CandidateExecution &cand)
    : _plan(&plan)
{
    fold(cand);
}

FoldedProgram::FoldedProgram(const Program &program,
                             const CandidateExecution &cand)
    : _owned(std::make_shared<FoldPlan>(program)), _plan(_owned.get())
{
    fold(cand);
}

void
FoldedProgram::fold(const CandidateExecution &cand)
{
    _n = cand.size();
    const std::size_t nOps = _plan->program().ops.size();
    _regs.resize(nOps);
    _doneEpoch.assign(nOps, 0);

    // Execute the whole constant prefix in one dispatch run (operands
    // always precede their op, so ascending order is evaluation order).
    _pending = _plan->_constOps;
    executePending(cand);
    captureStatic(cand);

    const std::size_t nChecks = _plan->program().checks.size();
    _constOutcome.resize(nChecks);
    _failures.assign(nChecks, 0);
    _order.resize(nChecks);
    for (std::size_t i = 0; i < nChecks; ++i) {
        _order[i] = static_cast<std::uint32_t>(i);
        if (_plan->_checkConst[i])
            _constOutcome[i] = evalOutcome(i);
    }
}

bool
FoldedProgram::matchesStatic(const CandidateExecution &cand) const
{
    if (cand.size() != _sig.events.size())
        return false;
    for (std::size_t i = 0; i < _sig.events.size(); ++i) {
        const Event &e = cand.events[i];
        const EventSig &sig = _sig.events[i];
        if (e.kind != sig.kind || e.tid != sig.tid || e.loc != sig.loc ||
            !(e.flags == sig.flags) || e.initial != sig.initial ||
            e.barrier != sig.barrier ||
            e.exceptionClass != sig.exceptionClass)
            return false;
    }
    return cand.po == _sig.po && cand.iio == _sig.iio &&
           cand.addr == _sig.addr && cand.data == _sig.data &&
           cand.ctrl == _sig.ctrl && cand.rmw == _sig.rmw;
}

void
FoldedProgram::captureStatic(const CandidateExecution &cand)
{
    _sig.events.resize(cand.size());
    for (std::size_t i = 0; i < _sig.events.size(); ++i) {
        const Event &e = cand.events[i];
        _sig.events[i] = EventSig{e.kind, e.tid, e.loc, e.flags,
                                  e.initial, e.barrier, e.exceptionClass};
    }
    _sig.po = cand.po;
    _sig.iio = cand.iio;
    _sig.addr = cand.addr;
    _sig.data = cand.data;
    _sig.ctrl = cand.ctrl;
    _sig.rmw = cand.rmw;
}

void
FoldedProgram::refold(const CandidateExecution &cand)
{
    // Only register *values* depend on the trace combination, and only
    // through the static signature: a matching signature means every
    // folded register (and resolved constant check) is already right.
    if (matchesStatic(cand))
        return;
    _n = cand.size();
    _pending = _plan->_constOps;
    executePending(cand);
    for (std::size_t i = 0; i < _plan->program().checks.size(); ++i) {
        if (_constOutcome[i].known)
            _constOutcome[i] = evalOutcome(i);
    }
    captureStatic(cand);
}

FoldedProgram::ConstOutcome
FoldedProgram::evalOutcome(std::size_t index) const
{
    const Check &check = _plan->program().checks[index];
    const RegValue &value = _regs[check.reg];
    ConstOutcome out;
    out.known = true;
    switch (check.kind) {
      case Check::Kind::Acyclic:
        out.cycle = value.rel.findCycle();
        out.passed = !out.cycle.has_value();
        break;
      case Check::Kind::Irreflexive:
        out.passed = value.rel.irreflexive();
        if (!out.passed) {
            // Report some reflexive event as a 1-cycle, like the
            // interpreter does.
            for (EventId e = 0; e < value.rel.size(); ++e) {
                if (value.rel.contains(e, e)) {
                    out.cycle = std::vector<EventId>{e};
                    break;
                }
            }
        }
        break;
      case Check::Kind::Empty:
        out.passed = _plan->program().kinds[check.reg] == RegKind::Set
                         ? value.set.empty() : value.rel.empty();
        break;
    }
    return out;
}

bool
FoldedProgram::gatherPending(const std::vector<std::uint32_t> &deps)
{
    _pending.clear();
    for (std::uint32_t reg : deps) {
        if (_doneEpoch[reg] != _epoch) {
            _doneEpoch[reg] = _epoch;
            _pending.push_back(reg);
        }
    }
    return !_pending.empty();
}

bool
FoldedProgram::checkPassesFast(std::size_t index)
{
    const Check &check = _plan->program().checks[index];
    const RegValue &value = _regs[check.reg];
    switch (check.kind) {
      case Check::Kind::Acyclic:
        // No closure, no cycle extraction: a word-level DFS answers
        // the verdict an order of magnitude cheaper.
        return !value.rel.hasCycle();
      case Check::Kind::Irreflexive:
        return value.rel.irreflexive();
      case Check::Kind::Empty:
        return _plan->program().kinds[check.reg] == RegKind::Set
                   ? value.set.empty() : value.rel.empty();
    }
    return true;
}

ModelResult
FoldedProgram::runFast(const CandidateExecution &cand,
                       const engine::CancelToken *cancel)
{
    ModelResult result;
    ++_epoch;
    // Most-selective check first: descending measured failure count,
    // stable on ties so equally-selective checks keep program order.
    // Counts only change on failure, so the common all-pass candidate
    // skips the sort entirely.
    if (_orderDirty) {
        std::stable_sort(_order.begin(), _order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return _failures[a] > _failures[b];
                         });
        _orderDirty = false;
    }
    for (std::uint32_t index : _order) {
        const ConstOutcome &folded = _constOutcome[index];
        if (folded.known) {
            if (!folded.passed) {
                ++_failures[index];
                _orderDirty = true;
                result.consistent = false;
                return result;
            }
            continue;
        }
        if (gatherPending(_plan->_deps[index])) {
            if (cancel && cancel->cancelled()) {
                result.aborted = true;
                return result;
            }
            executePending(cand);
        }
        if (!checkPassesFast(index)) {
            ++_failures[index];
            _orderDirty = true;
            result.consistent = false;
            return result;
        }
    }
    return result;
}

ModelResult
FoldedProgram::runAttributed(const CandidateExecution &cand,
                             const engine::CancelToken *cancel)
{
    ModelResult result;
    ++_epoch;
    for (std::size_t index = 0; index < _plan->program().checks.size();
         ++index) {
        const Check &check = _plan->program().checks[index];
        ConstOutcome outcome = _constOutcome[index];
        if (!outcome.known) {
            if (gatherPending(_plan->_deps[index])) {
                if (cancel && cancel->cancelled()) {
                    result.aborted = true;
                    return result;
                }
                executePending(cand);
            }
            outcome = evalOutcome(index);
        }
        if (!outcome.passed) {
            ++_failures[index];
            _orderDirty = true;
            result.consistent = false;
            result.failedAxiom = check.name;
            result.cycle = std::move(outcome.cycle);
            return result;
        }
    }
    return result;
}

void
FoldedProgram::executePending(const CandidateExecution &cand)
{
    const Op *const ops = _plan->program().ops.data();
    RegValue *const regs = _regs.data();
    const std::uint32_t *const list = _pending.data();
    const std::size_t count = _pending.size();
    const std::size_t n = _n;
    for (std::size_t i = 0; i < count; ++i) {
        const Op &op = ops[list[i]];
        RegValue &out = regs[list[i]];
        switch (op.code) {
          case OpCode::LoadInput: {
            const auto input = static_cast<Input>(op.a);
            if (inputIsSet(input))
                out.set = loadInputSet(input, cand);
            else
                out.rel = loadInputRel(input, cand);
            break;
          }
          case OpCode::ZeroRel:
            out.rel.reset(n);
            break;
          case OpCode::ZeroSet:
            out.set = EventSet(n);
            break;
          case OpCode::UnionRel:
            out.rel = regs[op.a].rel;
            out.rel |= regs[op.b].rel;
            break;
          case OpCode::InterRel:
            out.rel = regs[op.a].rel;
            out.rel &= regs[op.b].rel;
            break;
          case OpCode::DiffRel:
            out.rel = regs[op.a].rel;
            out.rel -= regs[op.b].rel;
            break;
          case OpCode::UnionSet:
            out.set = regs[op.a].set;
            out.set |= regs[op.b].set;
            break;
          case OpCode::InterSet:
            out.set = regs[op.a].set;
            out.set &= regs[op.b].set;
            break;
          case OpCode::DiffSet:
            out.set = regs[op.a].set;
            out.set -= regs[op.b].set;
            break;
          case OpCode::Seq:
            out.rel = regs[op.a].rel.seq(regs[op.b].rel);
            break;
          case OpCode::Closure:
            out.rel = regs[op.a].rel.transitiveClosure();
            break;
          case OpCode::RtClosure:
            out.rel = regs[op.a].rel.reflexiveTransitiveClosure();
            break;
          case OpCode::OptionalRel:
            out.rel = regs[op.a].rel.optional();
            break;
          case OpCode::InverseRel:
            out.rel = regs[op.a].rel.inverse();
            break;
          case OpCode::IdentityOn:
            out.rel = Relation::identity(regs[op.a].set);
            break;
          case OpCode::ComplementSet:
            out.set = regs[op.a].set.complement();
            break;
          case OpCode::DomainOf:
            out.set = regs[op.a].rel.domain();
            break;
          case OpCode::RangeOf:
            out.set = regs[op.a].rel.range();
            break;
          case OpCode::RestrictDomain:
            out.rel = regs[op.a].rel.restrictDomain(regs[op.b].set);
            break;
          case OpCode::RestrictRange:
            out.rel = regs[op.a].rel.restrictRange(regs[op.b].set);
            break;
          case OpCode::Restricted:
            out.rel = regs[op.a].rel.restricted(regs[op.b].set,
                                                regs[op.c].set);
            break;
          case OpCode::Cartesian:
            out.rel = Relation::cartesian(regs[op.a].set,
                                          regs[op.b].set);
            break;
          case OpCode::Count_:
            panic("catc: invalid opcode reached the executor");
        }
    }
}

} // namespace rex::catc
