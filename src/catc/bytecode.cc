#include "catc/bytecode.hh"

#include <string_view>

#include "base/logging.hh"
#include "base/strings.hh"

namespace rex::catc {

namespace {

struct InputInfo {
    Input input;
    std::string_view name;  //!< a literal, so data() is NUL-terminated
    bool isSet;
    bool isWitness;
};

/** One row per Input, in enum order (checked at load time). */
constexpr InputInfo kInputs[] = {
    {Input::Rf, "rf", false, true},
    {Input::Co, "co", false, true},
    {Input::Interrupt, "interrupt", false, true},
    {Input::Po, "po", false, false},
    {Input::PoLoc, "po-loc", false, false},
    {Input::Loc, "loc", false, false},
    {Input::Addr, "addr", false, false},
    {Input::Data, "data", false, false},
    {Input::Ctrl, "ctrl", false, false},
    {Input::Rmw, "rmw", false, false},
    {Input::Iio, "iio", false, false},
    {Input::Int, "int", false, false},
    {Input::Id, "id", false, false},
    {Input::R, "R", true, false},
    {Input::W, "W", true, false},
    {Input::M, "M", true, false},
    {Input::IW, "IW", true, false},
    {Input::A, "A", true, false},
    {Input::Q, "Q", true, false},
    {Input::L, "L", true, false},
    {Input::Isb, "ISB", true, false},
    {Input::Te, "TE", true, false},
    {Input::Tf, "TF", true, false},
    {Input::Eret, "ERET", true, false},
    {Input::Mrs, "MRS", true, false},
    {Input::Msr, "MSR", true, false},
    {Input::TakeInterrupt, "TakeInterrupt", true, false},
    {Input::GicEvents, "GICEvents", true, false},
    {Input::DmbSy, "DMB.SY", true, false},
    {Input::DmbLd, "DMB.LD", true, false},
    {Input::DmbSt, "DMB.ST", true, false},
    {Input::DsbSy, "DSB.SY", true, false},
    {Input::DsbLd, "DSB.LD", true, false},
    {Input::DsbSt, "DSB.ST", true, false},
    {Input::Universe, "_", true, false},
};

static_assert(sizeof(kInputs) / sizeof(kInputs[0]) ==
                  static_cast<std::size_t>(Input::Count_),
              "kInputs must cover every Input");

const InputInfo &
info(Input input)
{
    const auto index = static_cast<std::size_t>(input);
    rexAssert(index < static_cast<std::size_t>(Input::Count_),
              "catc: Input out of range");
    rexAssert(kInputs[index].input == input,
              "catc: kInputs out of enum order");
    return kInputs[index];
}

const char *
opName(OpCode code)
{
    switch (code) {
      case OpCode::LoadInput: return "load";
      case OpCode::ZeroRel: return "zero.rel";
      case OpCode::ZeroSet: return "zero.set";
      case OpCode::UnionRel: return "union.rel";
      case OpCode::InterRel: return "inter.rel";
      case OpCode::DiffRel: return "diff.rel";
      case OpCode::UnionSet: return "union.set";
      case OpCode::InterSet: return "inter.set";
      case OpCode::DiffSet: return "diff.set";
      case OpCode::Seq: return "seq";
      case OpCode::Closure: return "closure";
      case OpCode::RtClosure: return "rtclosure";
      case OpCode::OptionalRel: return "optional";
      case OpCode::InverseRel: return "inverse";
      case OpCode::IdentityOn: return "identity";
      case OpCode::ComplementSet: return "complement";
      case OpCode::DomainOf: return "domain";
      case OpCode::RangeOf: return "range";
      case OpCode::RestrictDomain: return "restrict.dom";
      case OpCode::RestrictRange: return "restrict.rng";
      case OpCode::Restricted: return "restricted";
      case OpCode::Cartesian: return "cartesian";
      case OpCode::Count_: break;
    }
    return "?";
}

} // namespace

int
operandsOf(const Op &op, std::uint32_t out[3])
{
    switch (op.code) {
      case OpCode::LoadInput:
      case OpCode::ZeroRel:
      case OpCode::ZeroSet:
        return 0;
      case OpCode::Closure:
      case OpCode::RtClosure:
      case OpCode::OptionalRel:
      case OpCode::InverseRel:
      case OpCode::IdentityOn:
      case OpCode::ComplementSet:
      case OpCode::DomainOf:
      case OpCode::RangeOf:
        out[0] = op.a;
        return 1;
      case OpCode::Restricted:
        out[0] = op.a;
        out[1] = op.b;
        out[2] = op.c;
        return 3;
      default:
        out[0] = op.a;
        out[1] = op.b;
        return 2;
    }
}

bool
inputIsWitness(Input input)
{
    return info(input).isWitness;
}

bool
inputIsSet(Input input)
{
    return info(input).isSet;
}

const char *
inputName(Input input)
{
    return info(input).name.data();
}

Input
inputByName(const std::string &name)
{
    for (const InputInfo &entry : kInputs) {
        if (name == entry.name)
            return entry.input;
    }
    return Input::Count_;
}

Relation
loadInputRel(Input input, const CandidateExecution &cand)
{
    switch (input) {
      case Input::Rf: return cand.rf;
      case Input::Co: return cand.co;
      case Input::Interrupt: return cand.interruptWitness;
      case Input::Po: return cand.po;
      case Input::PoLoc: return cand.poLoc();
      case Input::Loc: return cand.sameLoc();
      case Input::Addr: return cand.addr;
      case Input::Data: return cand.data;
      case Input::Ctrl: return cand.ctrl;
      case Input::Rmw: return cand.rmw;
      case Input::Iio: return cand.iio;
      case Input::Int: return cand.internalPairs();
      case Input::Id: return Relation::identity(cand.size());
      default:
        break;
    }
    panic("catc: loadInputRel on a set input");
}

EventSet
loadInputSet(Input input, const CandidateExecution &cand)
{
    switch (input) {
      case Input::R: return cand.reads();
      case Input::W: return cand.writes();
      case Input::M: return cand.reads() | cand.writes();
      case Input::IW: return cand.initialWrites();
      case Input::A: return cand.acquires();
      case Input::Q: return cand.acquirePcs();
      case Input::L: return cand.releases();
      case Input::Isb: return cand.isb();
      case Input::Te: return cand.takeExceptions();
      case Input::Tf: return cand.translationFaults();
      case Input::Eret: return cand.erets();
      case Input::Mrs: return cand.mrsEvents();
      case Input::Msr: return cand.msrEvents();
      case Input::TakeInterrupt: return cand.takeInterrupts();
      case Input::GicEvents: return cand.gicEvents();
      case Input::DmbSy: return cand.barriersOf(BarrierKind::DmbSy);
      case Input::DmbLd: return cand.barriersOf(BarrierKind::DmbLd);
      case Input::DmbSt: return cand.barriersOf(BarrierKind::DmbSt);
      case Input::DsbSy: return cand.barriersOf(BarrierKind::DsbSy);
      case Input::DsbLd: return cand.barriersOf(BarrierKind::DsbLd);
      case Input::DsbSt: return cand.barriersOf(BarrierKind::DsbSt);
      case Input::Universe: return EventSet::universe(cand.size());
      default:
        break;
    }
    panic("catc: loadInputSet on a relation input");
}

std::string
Program::toString() const
{
    std::string out;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        out += format("r%zu = %s", i, opName(op.code));
        if (op.code == OpCode::LoadInput) {
            const auto input = static_cast<Input>(op.a);
            out += format(" %s",
                          op.a < static_cast<std::uint32_t>(Input::Count_)
                              ? inputName(input) : "?");
        }
        std::uint32_t operands[3];
        const int count = operandsOf(op, operands);
        for (int j = 0; j < count; ++j)
            out += format(" r%u", operands[j]);
        out += "\n";
    }
    for (const Check &check : checks) {
        const char *kind =
            check.kind == Check::Kind::Acyclic
                ? "acyclic"
                : check.kind == Check::Kind::Irreflexive ? "irreflexive"
                                                         : "empty";
        out += format("%s r%u as %s\n", kind, check.reg,
                      check.name.c_str());
    }
    return out;
}

std::string
verify(Program &program)
{
    std::vector<RegKind> kinds;
    kinds.reserve(program.ops.size());

    auto regOk = [&](std::uint32_t reg, std::size_t self) {
        return reg < self;
    };
    auto isRel = [&](std::uint32_t reg) {
        return kinds[reg] == RegKind::Rel;
    };
    auto isSet = [&](std::uint32_t reg) {
        return kinds[reg] == RegKind::Set;
    };

    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const Op &op = program.ops[i];
        auto bad = [&](const char *why) {
            return format("op %zu (%s): %s", i, opName(op.code), why);
        };
        switch (op.code) {
          case OpCode::LoadInput:
            if (op.a >= static_cast<std::uint32_t>(Input::Count_))
                return bad("input id out of range");
            kinds.push_back(inputIsSet(static_cast<Input>(op.a))
                                ? RegKind::Set : RegKind::Rel);
            break;
          case OpCode::ZeroRel:
            kinds.push_back(RegKind::Rel);
            break;
          case OpCode::ZeroSet:
            kinds.push_back(RegKind::Set);
            break;
          case OpCode::UnionRel:
          case OpCode::InterRel:
          case OpCode::DiffRel:
          case OpCode::Seq:
            if (!regOk(op.a, i) || !regOk(op.b, i))
                return bad("operand register out of range");
            if (!isRel(op.a) || !isRel(op.b))
                return bad("operand is not a relation");
            kinds.push_back(RegKind::Rel);
            break;
          case OpCode::UnionSet:
          case OpCode::InterSet:
          case OpCode::DiffSet:
            if (!regOk(op.a, i) || !regOk(op.b, i))
                return bad("operand register out of range");
            if (!isSet(op.a) || !isSet(op.b))
                return bad("operand is not a set");
            kinds.push_back(RegKind::Set);
            break;
          case OpCode::Closure:
          case OpCode::RtClosure:
          case OpCode::OptionalRel:
          case OpCode::InverseRel:
            if (!regOk(op.a, i))
                return bad("operand register out of range");
            if (!isRel(op.a))
                return bad("operand is not a relation");
            kinds.push_back(RegKind::Rel);
            break;
          case OpCode::IdentityOn:
            if (!regOk(op.a, i))
                return bad("operand register out of range");
            if (!isSet(op.a))
                return bad("operand is not a set");
            kinds.push_back(RegKind::Rel);
            break;
          case OpCode::ComplementSet:
            if (!regOk(op.a, i))
                return bad("operand register out of range");
            if (!isSet(op.a))
                return bad("operand is not a set");
            kinds.push_back(RegKind::Set);
            break;
          case OpCode::DomainOf:
          case OpCode::RangeOf:
            if (!regOk(op.a, i))
                return bad("operand register out of range");
            if (!isRel(op.a))
                return bad("operand is not a relation");
            kinds.push_back(RegKind::Set);
            break;
          case OpCode::RestrictDomain:
          case OpCode::RestrictRange:
            if (!regOk(op.a, i) || !regOk(op.b, i))
                return bad("operand register out of range");
            if (!isRel(op.a) || !isSet(op.b))
                return bad("needs a relation and a set");
            kinds.push_back(RegKind::Rel);
            break;
          case OpCode::Restricted:
            if (!regOk(op.a, i) || !regOk(op.b, i) || !regOk(op.c, i))
                return bad("operand register out of range");
            if (!isRel(op.a) || !isSet(op.b) || !isSet(op.c))
                return bad("needs a relation and two sets");
            kinds.push_back(RegKind::Rel);
            break;
          case OpCode::Cartesian:
            if (!regOk(op.a, i) || !regOk(op.b, i))
                return bad("operand register out of range");
            if (!isSet(op.a) || !isSet(op.b))
                return bad("operand is not a set");
            kinds.push_back(RegKind::Rel);
            break;
          case OpCode::Count_:
            return bad("invalid opcode");
        }
    }

    for (std::size_t i = 0; i < program.checks.size(); ++i) {
        const Check &check = program.checks[i];
        if (check.reg >= program.ops.size()) {
            return format("check %zu (%s): register out of range", i,
                          check.name.c_str());
        }
        if (check.kind != Check::Kind::Empty &&
                kinds[check.reg] != RegKind::Rel) {
            return format("check %zu (%s): cyclicity check on a set", i,
                          check.name.c_str());
        }
    }

    program.kinds = std::move(kinds);
    return "";
}

} // namespace rex::catc
