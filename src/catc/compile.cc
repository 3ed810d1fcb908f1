#include "catc/compile.hh"

#include <string_view>
#include <unordered_map>

#include "base/logging.hh"
#include "cat/catmodel.hh"

namespace rex::catc {

namespace {

constexpr std::uint32_t kNoReg = ~std::uint32_t(0);

/**
 * Emits ops with value numbering: every op is pure, so structurally
 * identical ops collapse to one register. Shared subexpressions (po,
 * the barrier classes, int) appear once no matter how many clauses
 * mention them. The builder also records which registers depend on a
 * witness input, fuses identity sequences into restrictions, and
 * drops the ops no check reads when the program is finished.
 */
class Builder
{
  public:
    Builder() : _slots(512, kNoReg) { _program.ops.reserve(192); }

    std::uint32_t
    emit(OpCode code, std::uint32_t a = 0, std::uint32_t b = 0,
         std::uint32_t c = 0)
    {
        const Op op{code, a, b, c};
        std::size_t slot = probe(op);
        if (_slots[slot] != kNoReg)
            return _slots[slot];
        bool witness = false;
        if (code == OpCode::LoadInput) {
            witness = inputIsWitness(static_cast<Input>(a));
        } else {
            std::uint32_t operands[3];
            const int count = operandsOf(op, operands);
            for (int j = 0; j < count; ++j)
                witness = witness || _witness[operands[j]];
        }
        const auto reg =
            static_cast<std::uint32_t>(_program.ops.size());
        _program.ops.push_back(op);
        _witness.push_back(witness);
        _slots[slot] = reg;
        if (2 * _program.ops.size() > _slots.size())
            rehash();
        return reg;
    }

    std::uint32_t
    input(Input in)
    {
        return emit(OpCode::LoadInput, static_cast<std::uint32_t>(in));
    }

    /** True when @p reg depends on rf, co or the interrupt witness. */
    bool witness(std::uint32_t reg) const { return _witness[reg]; }

    /** `a ; b`, with `[S]; r`, `r; [T]` and `[S]; r; [T]` fused into
     *  one restriction op instead of a sequence through an identity. */
    std::uint32_t
    seq(std::uint32_t a, std::uint32_t b)
    {
        const Op lhs = _program.ops[a];
        const Op rhs = _program.ops[b];
        if (lhs.code == OpCode::IdentityOn) {
            if (rhs.code == OpCode::RestrictRange)
                return emit(OpCode::Restricted, rhs.a, lhs.a, rhs.b);
            return emit(OpCode::RestrictDomain, b, lhs.a);
        }
        if (rhs.code == OpCode::IdentityOn) {
            if (lhs.code == OpCode::RestrictDomain)
                return emit(OpCode::Restricted, lhs.a, lhs.b, rhs.a);
            return emit(OpCode::RestrictRange, a, rhs.a);
        }
        return emit(OpCode::Seq, a, b);
    }

    void
    check(Check::Kind kind, std::uint32_t reg, std::string name)
    {
        // irreflexive r+ holds iff r is acyclic: checking r skips the
        // closure, and the counterexample is a cycle of r rather than
        // a reflexive event of r+.
        if (kind == Check::Kind::Irreflexive &&
                _program.ops[reg].code == OpCode::Closure) {
            kind = Check::Kind::Acyclic;
            reg = _program.ops[reg].a;
        }
        _program.checks.push_back(Check{kind, reg, std::move(name)});
    }

    /** Drop every op no check reads, renumber the rest with the
     *  witness-independent ops first (each half in emission order, so
     *  the folded prefix and the per-candidate tail are contiguous),
     *  and verify the result. */
    Program
    finish()
    {
        std::vector<Op> &ops = _program.ops;
        std::vector<std::uint8_t> live(ops.size(), 0);
        for (const Check &check : _program.checks)
            live[check.reg] = 1;
        std::uint32_t operands[3];
        for (std::size_t i = ops.size(); i-- > 0;) {
            if (!live[i])
                continue;
            const int count = operandsOf(ops[i], operands);
            for (int j = 0; j < count; ++j)
                live[operands[j]] = 1;
        }
        // A witness-independent op never reads a witness-dependent one,
        // so operands still precede their ops.
        std::vector<std::uint32_t> renumbered(ops.size(), kNoReg);
        std::vector<Op> kept;
        for (std::uint8_t witness : {0, 1}) {
            for (std::size_t i = 0; i < ops.size(); ++i) {
                if (!live[i] || _witness[i] != witness)
                    continue;
                Op op = ops[i];
                const int count = operandsOf(op, operands);
                std::uint32_t *fields[3] = {&op.a, &op.b, &op.c};
                for (int j = 0; j < count; ++j)
                    *fields[j] = renumbered[operands[j]];
                renumbered[i] = static_cast<std::uint32_t>(kept.size());
                kept.push_back(op);
            }
        }
        ops = std::move(kept);
        for (Check &check : _program.checks)
            check.reg = renumbered[check.reg];

        const std::string error = verify(_program);
        rexAssert(error.empty(), "catc: compiler emitted an invalid "
                                 "program: " + error);
        return std::move(_program);
    }

  private:
    /** The value-numbering slot of @p op: the slot holding its
     *  register, or the empty slot where it belongs. */
    std::size_t
    probe(const Op &op) const
    {
        std::size_t h = 1469598103934665603ull;
        for (std::uint32_t v : {static_cast<std::uint32_t>(op.code), op.a,
                                op.b, op.c}) {
            h ^= v;
            h *= 1099511628211ull;
        }
        const std::size_t mask = _slots.size() - 1;
        for (std::size_t slot = h & mask;; slot = (slot + 1) & mask) {
            const std::uint32_t reg = _slots[slot];
            if (reg == kNoReg)
                return slot;
            const Op &other = _program.ops[reg];
            if (other.code == op.code && other.a == op.a &&
                    other.b == op.b && other.c == op.c)
                return slot;
        }
    }

    void
    rehash()
    {
        _slots.assign(2 * _slots.size(), kNoReg);
        for (std::size_t reg = 0; reg < _program.ops.size(); ++reg)
            _slots[probe(_program.ops[reg])] =
                static_cast<std::uint32_t>(reg);
    }

    Program _program;
    std::vector<std::uint8_t> _witness;  //!< per op
    /** Open-addressing value-numbering table of registers (kNoReg =
     *  empty), at most half full. */
    std::vector<std::uint32_t> _slots;
};

/**
 * A value during cat lowering: the polymorphic zero (materialised on
 * demand with the interpreter's coercion rules), or a set or relation
 * held as the union of a witness-independent part and a
 * witness-dependent part, either of which may be absent. Carrying the
 * split through unions folds the constant half of a clause like `ob`
 * into one register, so only the witness half runs per candidate.
 */
struct Lowered {
    bool zero = true;
    bool isSet = false;
    std::uint32_t fixed = kNoReg;
    std::uint32_t witness = kNoReg;
};

/** Recursive-descent lowering of cat expressions and statements. */
class CatLowerer
{
  public:
    /** @param skip_check name of a check to leave out ("" = none). */
    CatLowerer(const std::map<std::string, bool> &flags,
               std::string_view skip_check)
        : _flags(flags), _skipCheck(skip_check)
    {
        _env.reserve(128);
    }

    void
    lowerStatements(const std::vector<cat::Statement> &statements)
    {
        using cat::Statement;
        for (const Statement &stmt : statements) {
            switch (stmt.kind) {
              case Statement::Kind::Show:
                break;
              case Statement::Kind::Flag:
                fatal("catc: 'flag' diagnostics are not compilable "
                      "(line " + std::to_string(stmt.line) + ")");
              case Statement::Kind::Include:
                fatal("catc: unresolved include \"" + stmt.includePath +
                      "\" — flatten includes before compiling");
              case Statement::Kind::Let:
                if (stmt.recursive) {
                    fatal("catc: 'let rec' is not compilable (line " +
                          std::to_string(stmt.line) + ")");
                }
                for (const auto &[name, expr] : stmt.bindings)
                    _env[name] = lower(*expr);
                break;
              case Statement::Kind::Check: {
                std::string name = stmt.checkName.empty()
                    ? ("check@" + std::to_string(stmt.line))
                    : stmt.checkName;
                if (name == _skipCheck)
                    break;
                Lowered value = lower(*stmt.checkExpr);
                Check::Kind kind = Check::Kind::Acyclic;
                std::uint32_t reg = 0;
                switch (stmt.check) {
                  case Statement::CheckKind::Acyclic:
                    kind = Check::Kind::Acyclic;
                    reg = asRel(value);
                    break;
                  case Statement::CheckKind::Irreflexive:
                    kind = Check::Kind::Irreflexive;
                    reg = asRel(value);
                    break;
                  case Statement::CheckKind::Empty:
                    kind = Check::Kind::Empty;
                    // The interpreter coerces zero to a relation here.
                    reg = value.isSet && !value.zero ? materialise(value)
                                                     : asRel(value);
                    break;
                }
                _builder.check(kind, reg, std::move(name));
                break;
              }
            }
        }
    }

    Program
    finish()
    {
        return _builder.finish();
    }

  private:
    bool
    evalCond(const cat::FlagCond &cond) const
    {
        using cat::FlagCond;
        switch (cond.kind) {
          case FlagCond::Kind::Flag: {
            auto it = _flags.find(cond.flag);
            return it != _flags.end() && it->second;
          }
          case FlagCond::Kind::Not:
            return !evalCond(*cond.lhs);
          case FlagCond::Kind::And:
            return evalCond(*cond.lhs) && evalCond(*cond.rhs);
          case FlagCond::Kind::Or:
            return evalCond(*cond.lhs) || evalCond(*cond.rhs);
        }
        return false;
    }

    /** @p reg as a lowered value, filed under its witness half. */
    Lowered
    value(std::uint32_t reg, bool is_set) const
    {
        Lowered out;
        out.zero = false;
        out.isSet = is_set;
        (_builder.witness(reg) ? out.witness : out.fixed) = reg;
        return out;
    }

    Lowered rel(std::uint32_t reg) const { return value(reg, false); }
    Lowered set(std::uint32_t reg) const { return value(reg, true); }

    /** The one register holding non-zero @p value. */
    std::uint32_t
    materialise(const Lowered &value)
    {
        if (value.fixed == kNoReg)
            return value.witness;
        if (value.witness == kNoReg)
            return value.fixed;
        return _builder.emit(value.isSet ? OpCode::UnionSet
                                         : OpCode::UnionRel,
                             value.fixed, value.witness);
    }

    std::uint32_t
    asRel(const Lowered &value)
    {
        if (value.zero)
            return _builder.emit(OpCode::ZeroRel);
        if (value.isSet)
            fatal("catc type error: expected a relation, got a set");
        return materialise(value);
    }

    std::uint32_t
    asSet(const Lowered &value)
    {
        if (value.zero)
            return _builder.emit(OpCode::ZeroSet);
        if (!value.isSet)
            fatal("catc type error: expected a set, got a relation");
        return materialise(value);
    }

    /** The built-in (or derived built-in) named @p name, or nullopt. */
    std::optional<Lowered>
    builtin(const std::string &name)
    {
        const Input input = inputByName(name);
        if (input != Input::Count_)
            return value(_builder.input(input), inputIsSet(input));
        // Derived built-ins, lowered like the evaluator's accessors.
        auto inter = [&](Input a, Input b) {
            return rel(_builder.emit(
                OpCode::InterRel, _builder.input(a), _builder.input(b)));
        };
        auto diff = [&](Input a, Input b) {
            return rel(_builder.emit(
                OpCode::DiffRel, _builder.input(a), _builder.input(b)));
        };
        auto fr = [&] {
            return _builder.emit(
                OpCode::Seq,
                _builder.emit(OpCode::InverseRel,
                              _builder.input(Input::Rf)),
                _builder.input(Input::Co));
        };
        if (name == "rfi")
            return inter(Input::Rf, Input::Int);
        if (name == "rfe")
            return diff(Input::Rf, Input::Int);
        if (name == "coi")
            return inter(Input::Co, Input::Int);
        if (name == "coe")
            return diff(Input::Co, Input::Int);
        if (name == "fr")
            return rel(fr());
        if (name == "fri") {
            return rel(_builder.emit(OpCode::InterRel, fr(),
                                     _builder.input(Input::Int)));
        }
        if (name == "fre") {
            return rel(_builder.emit(OpCode::DiffRel, fr(),
                                     _builder.input(Input::Int)));
        }
        if (name == "ext") {
            const std::uint32_t universe =
                _builder.input(Input::Universe);
            const std::uint32_t all =
                _builder.emit(OpCode::Cartesian, universe, universe);
            return rel(_builder.emit(
                OpCode::DiffRel,
                _builder.emit(OpCode::DiffRel, all,
                              _builder.input(Input::Int)),
                _builder.input(Input::Id)));
        }
        return std::nullopt;
    }

    /** Union of two optional halves. */
    std::uint32_t
    unite(OpCode code, std::uint32_t a, std::uint32_t b)
    {
        if (a == kNoReg)
            return b;
        if (b == kNoReg)
            return a;
        return _builder.emit(code, a, b);
    }

    Lowered
    lower(const cat::Expr &expr)
    {
        using cat::Expr;
        switch (expr.kind) {
          case Expr::Kind::Zero:
            return Lowered{};

          case Expr::Kind::Name: {
            auto it = _env.find(expr.name);
            if (it != _env.end())
                return it->second;
            // Built-ins are looked up once; a later let rebinds the
            // name as usual.
            if (auto value = builtin(expr.name))
                return _env[expr.name] = *value;
            fatal("catc: unbound name '" + expr.name + "' at line " +
                  std::to_string(expr.line));
          }

          case Expr::Kind::Union:
          case Expr::Kind::Inter:
          case Expr::Kind::Diff: {
            Lowered lhs = lower(*expr.lhs);
            Lowered rhs = lower(*expr.rhs);
            // The evaluator's polymorphism rules: sets combine with
            // sets, relations with relations, zero adopts the other
            // side's kind (two zeros coerce to relations).
            const bool anySet = (!lhs.zero && lhs.isSet) ||
                                (!rhs.zero && rhs.isSet);
            const bool anyRel = (!lhs.zero && !lhs.isSet) ||
                                (!rhs.zero && !rhs.isSet);
            if (anySet && anyRel) {
                fatal("catc type error: mixing a set and a relation at "
                      "line " + std::to_string(expr.line));
            }
            if (expr.kind == Expr::Kind::Union) {
                if (lhs.zero && rhs.zero)
                    return rel(_builder.emit(OpCode::ZeroRel));
                if (lhs.zero)
                    return rhs;
                if (rhs.zero)
                    return lhs;
                const OpCode code =
                    anySet ? OpCode::UnionSet : OpCode::UnionRel;
                Lowered out = lhs;
                out.fixed = unite(code, lhs.fixed, rhs.fixed);
                out.witness = unite(code, lhs.witness, rhs.witness);
                return out;
            }
            if (anySet) {
                const OpCode code = expr.kind == Expr::Kind::Inter
                                        ? OpCode::InterSet
                                        : OpCode::DiffSet;
                return set(_builder.emit(code, asSet(lhs), asSet(rhs)));
            }
            const OpCode code = expr.kind == Expr::Kind::Inter
                                    ? OpCode::InterRel
                                    : OpCode::DiffRel;
            return rel(_builder.emit(code, asRel(lhs), asRel(rhs)));
          }

          case Expr::Kind::Seq: {
            Lowered lhs = lower(*expr.lhs);
            Lowered rhs = lower(*expr.rhs);
            return rel(_builder.seq(asRel(lhs), asRel(rhs)));
          }

          case Expr::Kind::Closure:
            return rel(_builder.emit(OpCode::Closure,
                                     asRel(lower(*expr.lhs))));
          case Expr::Kind::RtClosure:
            return rel(_builder.emit(OpCode::RtClosure,
                                     asRel(lower(*expr.lhs))));
          case Expr::Kind::Optional:
            return rel(_builder.emit(OpCode::OptionalRel,
                                     asRel(lower(*expr.lhs))));
          case Expr::Kind::Inverse:
            return rel(_builder.emit(OpCode::InverseRel,
                                     asRel(lower(*expr.lhs))));

          case Expr::Kind::Complement: {
            Lowered value = lower(*expr.lhs);
            if (!value.zero && !value.isSet) {
                fatal("catc: '~' on a relation is unsupported (line " +
                      std::to_string(expr.line) + ")");
            }
            return set(_builder.emit(OpCode::ComplementSet,
                                     asSet(value)));
          }

          case Expr::Kind::Bracket:
            return rel(_builder.emit(OpCode::IdentityOn,
                                     asSet(lower(*expr.lhs))));

          case Expr::Kind::If:
            return evalCond(*expr.cond) ? lower(*expr.lhs)
                                        : lower(*expr.rhs);

          case Expr::Kind::App: {
            Lowered arg = lower(*expr.lhs);
            if (expr.name == "range")
                return set(_builder.emit(OpCode::RangeOf, asRel(arg)));
            if (expr.name == "domain")
                return set(_builder.emit(OpCode::DomainOf, asRel(arg)));
            fatal("catc: unknown function '" + expr.name +
                  "' at line " + std::to_string(expr.line));
          }
        }
        panic("catc: unhandled cat expression kind");
    }

    const std::map<std::string, bool> &_flags;
    std::string_view _skipCheck;
    Builder _builder;
    std::unordered_map<std::string, Lowered> _env;
};

} // namespace

Program
compileNative(const ModelParams &params, bool include_internal)
{
    const std::map<std::string, bool> flags = cat::flagsFor(params);
    CatLowerer lowerer(flags, include_internal ? "" : "internal");
    lowerer.lowerStatements(cat::CatModel::shipped().file().statements);
    return lowerer.finish();
}

CatCompileResult
compileCat(const cat::CatFile &file,
           const std::map<std::string, bool> &flags)
{
    CatCompileResult result;
    try {
        CatLowerer lowerer(flags, "");
        lowerer.lowerStatements(file.statements);
        result.program = lowerer.finish();
    } catch (const FatalError &err) {
        result.error = err.what();
    }
    return result;
}

} // namespace rex::catc
