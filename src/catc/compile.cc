#include "catc/compile.hh"

#include <array>
#include <unordered_map>

#include "base/logging.hh"

namespace rex::catc {

namespace {

/**
 * Emits ops with value-numbering: every op is pure, so structurally
 * identical ops collapse to one register. This is what makes the
 * lowered clause structure "skeleton-shaped" — shared subexpressions
 * (po, the barrier classes, int) appear once no matter how many clauses
 * mention them.
 */
class Builder
{
  public:
    std::uint32_t
    emit(OpCode code, std::uint32_t a = 0, std::uint32_t b = 0,
         std::uint32_t c = 0)
    {
        const Key key{static_cast<std::uint32_t>(code), a, b, c};
        auto it = _memo.find(key);
        if (it != _memo.end())
            return it->second;
        const auto reg =
            static_cast<std::uint32_t>(_program.ops.size());
        _program.ops.push_back(Op{code, a, b, c});
        _memo.emplace(key, reg);
        return reg;
    }

    std::uint32_t
    input(Input in)
    {
        return emit(OpCode::LoadInput, static_cast<std::uint32_t>(in));
    }

    std::uint32_t
    unionAll(std::initializer_list<std::uint32_t> regs)
    {
        rexAssert(regs.size() > 0, "catc: empty union");
        auto it = regs.begin();
        std::uint32_t acc = *it++;
        for (; it != regs.end(); ++it)
            acc = emit(OpCode::UnionRel, acc, *it);
        return acc;
    }

    void
    check(Check::Kind kind, std::uint32_t reg, std::string name)
    {
        _program.checks.push_back(Check{kind, reg, std::move(name)});
    }

    Program
    finish()
    {
        const std::string error = verify(_program);
        rexAssert(error.empty(), "catc: compiler emitted an invalid "
                                 "program: " + error);
        return std::move(_program);
    }

  private:
    using Key = std::array<std::uint32_t, 4>;
    struct KeyHash {
        std::size_t
        operator()(const Key &k) const
        {
            std::size_t h = 1469598103934665603ull;
            for (std::uint32_t v : k) {
                h ^= v;
                h *= 1099511628211ull;
            }
            return h;
        }
    };

    Program _program;
    std::unordered_map<Key, std::uint32_t, KeyHash> _memo;
};

} // namespace

Program
compileNative(const ModelParams &params, bool include_internal)
{
    Builder b;

    // Event-kind sets and the upwards-closed barrier classes, exactly
    // as the native model's KindSets (axiomatic/model.cc) builds them.
    const std::uint32_t reads = b.input(Input::R);
    const std::uint32_t writes = b.input(Input::W);
    const std::uint32_t mem = b.emit(OpCode::UnionSet, reads, writes);
    const std::uint32_t dmbSy = b.input(Input::DmbSy);
    const std::uint32_t dsbSy = b.input(Input::DsbSy);
    const std::uint32_t dsbLd = b.input(Input::DsbLd);
    const std::uint32_t dsbSt = b.input(Input::DsbSt);
    std::uint32_t dmbLdClass =
        b.emit(OpCode::UnionSet, b.input(Input::DmbLd), dmbSy);
    dmbLdClass = b.emit(OpCode::UnionSet, dmbLdClass, dsbLd);
    dmbLdClass = b.emit(OpCode::UnionSet, dmbLdClass, dsbSy);
    std::uint32_t dmbStClass =
        b.emit(OpCode::UnionSet, b.input(Input::DmbSt), dmbSy);
    dmbStClass = b.emit(OpCode::UnionSet, dmbStClass, dsbSt);
    dmbStClass = b.emit(OpCode::UnionSet, dmbStClass, dsbSy);
    std::uint32_t dsbClass = b.emit(OpCode::UnionSet, dsbSy, dsbLd);
    dsbClass = b.emit(OpCode::UnionSet, dsbClass, dsbSt);
    const std::uint32_t isb = b.input(Input::Isb);
    const std::uint32_t acqA = b.input(Input::A);
    const std::uint32_t rel = b.input(Input::L);
    const std::uint32_t acq =
        b.emit(OpCode::UnionSet, acqA, b.input(Input::Q));
    const std::uint32_t msr = b.input(Input::Msr);
    const std::uint32_t takeIrq = b.input(Input::TakeInterrupt);

    const std::uint32_t po = b.input(Input::Po);
    const std::uint32_t addr = b.input(Input::Addr);
    const std::uint32_t rmw = b.input(Input::Rmw);
    const std::uint32_t internal = b.input(Input::Int);

    // (* might-be speculatively executed *)
    std::uint32_t spec = b.emit(OpCode::UnionRel, b.input(Input::Ctrl),
                                b.emit(OpCode::Seq, addr, po));
    if (params.seaR) {
        spec = b.emit(OpCode::UnionRel, spec,
                      b.emit(OpCode::RestrictDomain, po, reads));
    }
    if (params.seaW) {
        spec = b.emit(OpCode::UnionRel, spec,
                      b.emit(OpCode::RestrictDomain, po, writes));
    }

    // (* context-sync-events *)
    std::uint32_t cse = isb;
    if (params.entryIsCse())
        cse = b.emit(OpCode::UnionSet, cse, b.input(Input::Te));
    if (params.returnIsCse())
        cse = b.emit(OpCode::UnionSet, cse, b.input(Input::Eret));
    if (params.entryIsCse())
        cse = b.emit(OpCode::UnionSet, cse, takeIrq);

    // (* dependency-ordered-before *), minus the rfi tail.
    const std::uint32_t addrData =
        b.emit(OpCode::UnionRel, addr, b.input(Input::Data));
    const std::uint32_t dobStatic = b.unionAll(
        {addrData, b.emit(OpCode::RestrictRange, spec, writes),
         b.emit(OpCode::RestrictRange, spec, isb)});

    // (* barrier-ordered-before *)
    const std::uint32_t bob = b.unionAll({
        b.emit(OpCode::Restricted, po, reads, dmbLdClass),
        b.emit(OpCode::Restricted, po, writes, dmbStClass),
        b.emit(OpCode::Restricted, po, dmbStClass, writes),
        b.emit(OpCode::Restricted, po, dmbLdClass, mem),
        b.emit(OpCode::Restricted, po, rel, acqA),
        b.emit(OpCode::Restricted, po, acq, mem),
        b.emit(OpCode::Restricted, po, mem, rel),
        b.emit(OpCode::RestrictDomain, po, dsbClass),
    });

    // (* contextually-ordered-before *)
    const std::uint32_t ctxob = b.unionAll({
        b.emit(OpCode::RestrictRange, spec,
               b.emit(OpCode::UnionSet, msr, cse)),
        b.emit(OpCode::Restricted, po, msr, cse),
        b.emit(OpCode::RestrictDomain, po, cse),
    });

    // (* async-ordered-before *)
    const std::uint32_t asyncob = b.unionAll({
        b.emit(OpCode::RestrictRange, spec, takeIrq),
        b.emit(OpCode::RestrictDomain, po, takeIrq),
    });

    std::uint32_t staticOb =
        b.unionAll({dobStatic, rmw, bob, ctxob, asyncob});
    // FEAT_ETS2: a barrier before translation faults (§3.3).
    if (params.featEts2) {
        staticOb = b.emit(
            OpCode::UnionRel, staticOb,
            b.emit(OpCode::RestrictRange, po, b.input(Input::Tf)));
    }
    // §7.5 GIC draft: DSBs order GIC effects with program order.
    if (params.gicExtension) {
        const std::uint32_t iio = b.input(Input::Iio);
        const std::uint32_t gen = b.emit(
            OpCode::RestrictRange,
            b.emit(OpCode::Seq, b.emit(OpCode::InverseRel, iio), po),
            dsbClass);
        const std::uint32_t del = b.emit(
            OpCode::Seq, b.emit(OpCode::RestrictDomain, po, dsbClass),
            iio);
        staticOb = b.unionAll({staticOb, gen, del});
    }

    // The witness-dependent tail: everything from here on references
    // rf/co (and the interrupt witness), so it survives constant
    // folding and runs per candidate.
    const std::uint32_t rf = b.input(Input::Rf);
    const std::uint32_t co = b.input(Input::Co);
    const std::uint32_t fr = b.emit(
        OpCode::Seq, b.emit(OpCode::InverseRel, rf), co);
    const std::uint32_t rfi = b.emit(OpCode::InterRel, rf, internal);

    if (include_internal) {
        const std::uint32_t scLoc = b.unionAll(
            {b.input(Input::PoLoc), fr, co, rf});
        b.check(Check::Kind::Acyclic, scLoc, "internal");
    }

    std::uint32_t external = b.unionAll({
        staticOb, fr, b.emit(OpCode::DiffRel, rf, internal),  // rfe
        co, b.emit(OpCode::Seq, addrData, rfi),
        b.emit(OpCode::Restricted, rfi, b.emit(OpCode::RangeOf, rmw),
               acq),
    });
    if (params.gicExtension) {
        external = b.emit(OpCode::UnionRel, external,
                          b.input(Input::Interrupt));
    }
    b.check(Check::Kind::Acyclic, external, "external");

    // Atomic: no intervening external write between an exclusive pair.
    const std::uint32_t atomic = b.emit(
        OpCode::InterRel, rmw,
        b.emit(OpCode::Seq, b.emit(OpCode::DiffRel, fr, internal),
               b.emit(OpCode::DiffRel, co, internal)));
    b.check(Check::Kind::Empty, atomic, "atomic");

    return b.finish();
}

namespace {

/** A value during cat lowering: a register, or the polymorphic zero
 *  (materialized on demand with the interpreter's coercion rules). */
struct Lowered {
    bool zero = true;
    bool isSet = false;
    std::uint32_t reg = 0;

    static Lowered
    rel(std::uint32_t reg)
    {
        return Lowered{false, false, reg};
    }

    static Lowered
    set(std::uint32_t reg)
    {
        return Lowered{false, true, reg};
    }
};

/** Recursive-descent lowering of cat expressions and statements. */
class CatLowerer
{
  public:
    CatLowerer(const std::map<std::string, bool> &flags) : _flags(flags)
    {}

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
                    reg = value.isSet && !value.zero ? value.reg
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

    std::uint32_t
    asRel(const Lowered &value)
    {
        if (value.zero)
            return _builder.emit(OpCode::ZeroRel);
        if (value.isSet)
            fatal("catc type error: expected a relation, got a set");
        return value.reg;
    }

    std::uint32_t
    asSet(const Lowered &value)
    {
        if (value.zero)
            return _builder.emit(OpCode::ZeroSet);
        if (!value.isSet)
            fatal("catc type error: expected a set, got a relation");
        return value.reg;
    }

    /** The built-in (or derived built-in) named @p name, or nullopt. */
    std::optional<Lowered>
    builtin(const std::string &name)
    {
        const Input input = inputByName(name);
        if (input != Input::Count_) {
            const std::uint32_t reg = _builder.input(input);
            return inputIsSet(input) ? Lowered::set(reg)
                                     : Lowered::rel(reg);
        }
        // Derived built-ins, lowered like the evaluator's accessors.
        auto inter = [&](Input a, Input b) {
            return Lowered::rel(_builder.emit(
                OpCode::InterRel, _builder.input(a), _builder.input(b)));
        };
        auto diff = [&](Input a, Input b) {
            return Lowered::rel(_builder.emit(
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
            return Lowered::rel(fr());
        if (name == "fri") {
            return Lowered::rel(_builder.emit(
                OpCode::InterRel, fr(), _builder.input(Input::Int)));
        }
        if (name == "fre") {
            return Lowered::rel(_builder.emit(
                OpCode::DiffRel, fr(), _builder.input(Input::Int)));
        }
        if (name == "ext") {
            const std::uint32_t universe =
                _builder.input(Input::Universe);
            const std::uint32_t all =
                _builder.emit(OpCode::Cartesian, universe, universe);
            return Lowered::rel(_builder.emit(
                OpCode::DiffRel,
                _builder.emit(OpCode::DiffRel, all,
                              _builder.input(Input::Int)),
                _builder.input(Input::Id)));
        }
        return std::nullopt;
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
            if (auto value = builtin(expr.name))
                return *value;
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
            OpCode code;
            if (anySet) {
                code = expr.kind == Expr::Kind::Union
                           ? OpCode::UnionSet
                           : expr.kind == Expr::Kind::Inter
                                 ? OpCode::InterSet : OpCode::DiffSet;
                return Lowered::set(_builder.emit(code, asSet(lhs),
                                                  asSet(rhs)));
            }
            code = expr.kind == Expr::Kind::Union
                       ? OpCode::UnionRel
                       : expr.kind == Expr::Kind::Inter
                             ? OpCode::InterRel : OpCode::DiffRel;
            return Lowered::rel(_builder.emit(code, asRel(lhs),
                                              asRel(rhs)));
          }

          case Expr::Kind::Seq: {
            Lowered lhs = lower(*expr.lhs);
            Lowered rhs = lower(*expr.rhs);
            return Lowered::rel(_builder.emit(OpCode::Seq, asRel(lhs),
                                              asRel(rhs)));
          }

          case Expr::Kind::Closure:
            return Lowered::rel(_builder.emit(OpCode::Closure,
                                              asRel(lower(*expr.lhs))));
          case Expr::Kind::RtClosure:
            return Lowered::rel(_builder.emit(OpCode::RtClosure,
                                              asRel(lower(*expr.lhs))));
          case Expr::Kind::Optional:
            return Lowered::rel(_builder.emit(OpCode::OptionalRel,
                                              asRel(lower(*expr.lhs))));
          case Expr::Kind::Inverse:
            return Lowered::rel(_builder.emit(OpCode::InverseRel,
                                              asRel(lower(*expr.lhs))));

          case Expr::Kind::Complement: {
            Lowered value = lower(*expr.lhs);
            if (!value.zero && !value.isSet) {
                fatal("catc: '~' on a relation is unsupported (line " +
                      std::to_string(expr.line) + ")");
            }
            return Lowered::set(_builder.emit(OpCode::ComplementSet,
                                              asSet(value)));
          }

          case Expr::Kind::Bracket:
            return Lowered::rel(_builder.emit(OpCode::IdentityOn,
                                              asSet(lower(*expr.lhs))));

          case Expr::Kind::If:
            return evalCond(*expr.cond) ? lower(*expr.lhs)
                                        : lower(*expr.rhs);

          case Expr::Kind::App: {
            Lowered arg = lower(*expr.lhs);
            if (expr.name == "range") {
                return Lowered::set(_builder.emit(OpCode::RangeOf,
                                                  asRel(arg)));
            }
            if (expr.name == "domain") {
                return Lowered::set(_builder.emit(OpCode::DomainOf,
                                                  asRel(arg)));
            }
            fatal("catc: unknown function '" + expr.name +
                  "' at line " + std::to_string(expr.line));
          }
        }
        panic("catc: unhandled cat expression kind");
    }

    const std::map<std::string, bool> &_flags;
    Builder _builder;
    std::map<std::string, Lowered> _env;
};

} // namespace

CatCompileResult
compileCat(const cat::CatFile &file,
           const std::map<std::string, bool> &flags)
{
    CatCompileResult result;
    try {
        CatLowerer lowerer(flags);
        lowerer.lowerStatements(file.statements);
        result.program = lowerer.finish();
    } catch (const FatalError &err) {
        result.error = err.what();
    }
    return result;
}

} // namespace rex::catc
