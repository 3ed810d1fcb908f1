#include "cat/eval.hh"

#include "base/logging.hh"
#include "cat/parser.hh"

namespace rex::cat {

const Relation &
Value::asRel(std::size_t universe) const
{
    if (_kind == Kind::Rel)
        return _rel;
    if (_kind == Kind::Zero) {
        if (!_zeroRel)
            _zeroRel = Relation(universe);
        return *_zeroRel;
    }
    fatal("cat type error: expected a relation, got a set");
}

const EventSet &
Value::asSet(std::size_t universe) const
{
    if (_kind == Kind::Set)
        return _set;
    if (_kind == Kind::Zero) {
        if (!_zeroSet)
            _zeroSet = EventSet(universe);
        return *_zeroSet;
    }
    fatal("cat type error: expected a set, got a relation");
}

Evaluator::Evaluator(const CandidateExecution &candidate,
                     const std::map<std::string, bool> &flags,
                     IncludeResolver resolver)
    : _cand(candidate), _flags(flags), _resolver(std::move(resolver)),
      _n(candidate.size())
{
    installBuiltins();
}

void
Evaluator::installBuiltins()
{
    auto set = [&](const char *name, EventSet s) {
        _env[name] = Value::set(std::move(s));
    };
    auto rel = [&](const char *name, Relation r) {
        _env[name] = Value::rel(std::move(r));
    };

    // --- event sets ---
    set("R", _cand.reads());
    set("W", _cand.writes());
    set("M", _cand.reads() | _cand.writes());
    set("IW", _cand.initialWrites());
    set("A", _cand.acquires());
    set("Q", _cand.acquirePcs());
    set("L", _cand.releases());
    set("ISB", _cand.isb());
    set("TE", _cand.takeExceptions());
    set("TF", _cand.translationFaults());
    set("ERET", _cand.erets());
    set("MRS", _cand.mrsEvents());
    set("MSR", _cand.msrEvents());
    set("TakeInterrupt", _cand.takeInterrupts());
    set("GICEvents", _cand.gicEvents());
    set("DMB.SY", _cand.barriersOf(BarrierKind::DmbSy));
    set("DMB.LD", _cand.barriersOf(BarrierKind::DmbLd));
    set("DMB.ST", _cand.barriersOf(BarrierKind::DmbSt));
    set("DSB.SY", _cand.barriersOf(BarrierKind::DsbSy));
    set("DSB.LD", _cand.barriersOf(BarrierKind::DsbLd));
    set("DSB.ST", _cand.barriersOf(BarrierKind::DsbSt));
    set("_", EventSet::universe(_n));

    // --- relations ---
    rel("id", Relation::identity(_n));
    rel("po", _cand.po);
    rel("po-loc", _cand.poLoc());
    rel("loc", _cand.sameLoc());
    rel("addr", _cand.addr);
    rel("data", _cand.data);
    rel("ctrl", _cand.ctrl);
    rel("rmw", _cand.rmw);
    rel("rf", _cand.rf);
    rel("rfi", _cand.rfi());
    rel("rfe", _cand.rfe());
    rel("co", _cand.co);
    rel("coi", _cand.coi());
    rel("coe", _cand.coe());
    rel("fr", _cand.fr());
    rel("fri", _cand.fri());
    rel("fre", _cand.fre());
    rel("int", _cand.internalPairs());
    rel("ext", Relation::cartesian(EventSet::universe(_n),
                                   EventSet::universe(_n)) -
               _cand.internalPairs() - Relation::identity(_n));
    rel("iio", _cand.iio);
    rel("interrupt", _cand.interruptWitness);
}

bool
Evaluator::evalCond(const FlagCond &cond) const
{
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

Value
Evaluator::eval(const Expr &expr)
{
    switch (expr.kind) {
      case Expr::Kind::Zero:
        return Value::zero();

      case Expr::Kind::Name: {
        auto it = _env.find(expr.name);
        if (it == _env.end())
            fatal("cat: unbound name '" + expr.name + "' at line " +
                  std::to_string(expr.line));
        return it->second;
      }

      case Expr::Kind::Union:
      case Expr::Kind::Inter:
      case Expr::Kind::Diff: {
        Value lhs = eval(*expr.lhs);
        Value rhs = eval(*expr.rhs);
        // Polymorphic: sets combine with sets, relations with relations;
        // zero adopts the other side's kind.
        bool any_set = lhs.kind() == Value::Kind::Set ||
            rhs.kind() == Value::Kind::Set;
        bool any_rel = lhs.kind() == Value::Kind::Rel ||
            rhs.kind() == Value::Kind::Rel;
        if (any_set && any_rel)
            fatal("cat type error: mixing a set and a relation at line " +
                  std::to_string(expr.line));
        if (any_set) {
            const EventSet &a = lhs.asSet(_n);
            const EventSet &b = rhs.asSet(_n);
            if (expr.kind == Expr::Kind::Union)
                return Value::set(a | b);
            if (expr.kind == Expr::Kind::Inter)
                return Value::set(a & b);
            return Value::set(a - b);
        }
        const Relation &a = lhs.asRel(_n);
        const Relation &b = rhs.asRel(_n);
        if (expr.kind == Expr::Kind::Union)
            return Value::rel(a | b);
        if (expr.kind == Expr::Kind::Inter)
            return Value::rel(a & b);
        return Value::rel(a - b);
      }

      case Expr::Kind::Seq: {
        Value lv = eval(*expr.lhs);
        Value rv = eval(*expr.rhs);
        return Value::rel(lv.asRel(_n).seq(rv.asRel(_n)));
      }

      case Expr::Kind::Closure: {
        Value v = eval(*expr.lhs);
        return Value::closure(v.asRel(_n));
      }

      case Expr::Kind::RtClosure: {
        Value v = eval(*expr.lhs);
        return Value::rel(v.asRel(_n).reflexiveTransitiveClosure());
      }

      case Expr::Kind::Optional: {
        Value v = eval(*expr.lhs);
        return Value::rel(v.asRel(_n).optional());
      }

      case Expr::Kind::Inverse: {
        Value v = eval(*expr.lhs);
        return Value::rel(v.asRel(_n).inverse());
      }

      case Expr::Kind::Complement: {
        Value v = eval(*expr.lhs);
        if (v.kind() == Value::Kind::Set ||
                v.kind() == Value::Kind::Zero) {
            return Value::set(v.asSet(_n).complement());
        }
        fatal("cat: '~' on a relation is unsupported (line " +
              std::to_string(expr.line) + ")");
      }

      case Expr::Kind::Bracket: {
        Value v = eval(*expr.lhs);
        return Value::rel(Relation::identity(v.asSet(_n)));
      }

      case Expr::Kind::If:
        return evalCond(*expr.cond) ? eval(*expr.lhs) : eval(*expr.rhs);

      case Expr::Kind::App: {
        Value arg = eval(*expr.lhs);
        if (expr.name == "range")
            return Value::set(arg.asRel(_n).range());
        if (expr.name == "domain")
            return Value::set(arg.asRel(_n).domain());
        fatal("cat: unknown function '" + expr.name + "' at line " +
              std::to_string(expr.line));
      }
    }
    panic("unhandled cat expression kind");
}

void
Evaluator::evaluateStatements(const std::vector<Statement> &statements,
                              EvalResult &result)
{
    for (const Statement &stmt : statements) {
        switch (stmt.kind) {
          case Statement::Kind::Show:
            break;  // display-only in herd; nothing to do
          case Statement::Kind::Flag: {
            // Diagnostic check: evaluate, warn on trigger, never fail.
            Value v = eval(*stmt.checkExpr);
            bool is_empty = v.kind() == Value::Kind::Set
                ? v.asSet(_n).empty() : v.asRel(_n).empty();
            bool triggered = stmt.flagNegated ? !is_empty : is_empty;
            if (triggered) {
                warn("cat flag triggered: " +
                     (stmt.checkName.empty() ? "<anonymous>"
                                             : stmt.checkName));
            }
            break;
          }
          case Statement::Kind::Include: {
            if (!_resolver)
                fatal("cat: include \"" + stmt.includePath +
                      "\" but no resolver configured");
            CatFile included = parseCat(_resolver(stmt.includePath));
            evaluateStatements(included.statements, result);
            break;
          }
          case Statement::Kind::Let:
            if (!stmt.recursive) {
                for (const auto &[name, expr] : stmt.bindings)
                    _env[name] = eval(*expr);
                break;
            }
            {
                // 'let rec': least-fixpoint (Kleene) iteration from the
                // empty relation. Union-based recursive definitions, the
                // cat idiom, converge within n^2 steps; we bound harder.
                for (const auto &[name, expr] : stmt.bindings)
                    _env[name] = Value::zero();
                bool changed = true;
                int rounds = 0;
                while (changed) {
                    if (++rounds > 256)
                        fatal("cat: 'let rec' did not converge at line " +
                              std::to_string(stmt.line));
                    changed = false;
                    for (const auto &[name, expr] : stmt.bindings) {
                        Value next = eval(*expr);
                        const Value &prev = _env[name];
                        bool same;
                        if (next.kind() == Value::Kind::Set ||
                                prev.kind() == Value::Kind::Set) {
                            same = next.asSet(_n) == prev.asSet(_n);
                        } else {
                            same = next.asRel(_n) == prev.asRel(_n);
                        }
                        if (!same) {
                            _env[name] = std::move(next);
                            changed = true;
                        }
                    }
                }
            }
            break;
          case Statement::Kind::Check: {
            CheckOutcome outcome;
            outcome.name = stmt.checkName.empty()
                ? ("check@" + std::to_string(stmt.line)) : stmt.checkName;
            outcome.kind = stmt.check;
            switch (stmt.check) {
              case Statement::CheckKind::Acyclic: {
                Value v = eval(*stmt.checkExpr);
                const Relation &r = v.asRel(_n);
                outcome.cycle = r.findCycle();
                outcome.passed = !outcome.cycle.has_value();
                break;
              }
              case Statement::CheckKind::Irreflexive: {
                Value v = eval(*stmt.checkExpr);
                const Relation &r = v.asRel(_n);
                outcome.passed = r.irreflexive();
                if (!outcome.passed && v.closureOperand()) {
                    // r+ is reflexive exactly when r has a cycle: report
                    // that cycle, as the compiled program does.
                    outcome.cycle = v.closureOperand()->findCycle();
                } else if (!outcome.passed) {
                    // Report some reflexive event as a 1-cycle.
                    for (EventId e = 0; e < _n; ++e) {
                        if (r.contains(e, e)) {
                            outcome.cycle = std::vector<EventId>{e};
                            break;
                        }
                    }
                }
                break;
              }
              case Statement::CheckKind::Empty: {
                Value v = eval(*stmt.checkExpr);
                if (v.kind() == Value::Kind::Set)
                    outcome.passed = v.asSet(_n).empty();
                else
                    outcome.passed = v.asRel(_n).empty();
                break;
              }
            }
            if (!outcome.passed)
                result.consistent = false;
            result.checks.push_back(std::move(outcome));
            break;
          }
        }
    }
}

EvalResult
Evaluator::evaluateFile(const CatFile &file)
{
    EvalResult result;
    evaluateStatements(file.statements, result);
    return result;
}

const Value &
Evaluator::binding(const std::string &name) const
{
    auto it = _env.find(name);
    if (it == _env.end())
        fatal("cat: no binding named '" + name + "'");
    return it->second;
}

} // namespace rex::cat
