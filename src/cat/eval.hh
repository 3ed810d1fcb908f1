/**
 * @file
 * Evaluator for cat models over candidate executions.
 *
 * Binds the cat built-in names (event sets R, W, ISB, TE, ERET, MRS, MSR,
 * TakeInterrupt, ...; relations po, addr, data, ctrl, rf, co, fr, ...)
 * from a CandidateExecution, evaluates let-bindings, and runs the
 * acyclic/irreflexive/empty checks.
 */

#ifndef REX_CAT_EVAL_HH
#define REX_CAT_EVAL_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cat/ast.hh"
#include "events/candidate.hh"

namespace rex::cat {

/** A cat runtime value: a relation, an event set, or polymorphic zero. */
class Value
{
  public:
    enum class Kind { Zero, Rel, Set };

    Value() = default;

    static Value zero() { return Value(); }

    static Value
    rel(Relation relation)
    {
        Value v;
        v._kind = Kind::Rel;
        v._rel = std::move(relation);
        return v;
    }

    /** The transitive closure of @p operand, remembering the operand. */
    static Value
    closure(Relation operand)
    {
        Value v = rel(operand.transitiveClosure());
        v._closureOf = std::make_shared<const Relation>(std::move(operand));
        return v;
    }

    static Value
    set(EventSet events)
    {
        Value v;
        v._kind = Kind::Set;
        v._set = std::move(events);
        return v;
    }

    Kind kind() const { return _kind; }

    /** View as a relation (zero coerces to the empty relation). */
    const Relation &asRel(std::size_t universe) const;

    /** View as a set (zero coerces to the empty set). */
    const EventSet &asSet(std::size_t universe) const;

    /** The operand r of a value built as r+, else null. */
    const Relation *closureOperand() const { return _closureOf.get(); }

  private:
    Kind _kind = Kind::Zero;
    Relation _rel;
    EventSet _set;
    // Shared, so binding lookups copy a pointer rather than a relation.
    std::shared_ptr<const Relation> _closureOf;
    // Coercion caches (filled lazily for Zero).
    mutable std::optional<Relation> _zeroRel;
    mutable std::optional<EventSet> _zeroSet;
};

/** Outcome of one `acyclic/irreflexive/empty ... as name` check. */
struct CheckOutcome {
    std::string name;
    Statement::CheckKind kind = Statement::CheckKind::Acyclic;
    bool passed = true;
    std::optional<std::vector<EventId>> cycle;
};

/** Outcome of evaluating a whole model on one candidate. */
struct EvalResult {
    bool consistent = true;
    std::vector<CheckOutcome> checks;
};

/** Resolves `include "file"` to the file's source text. */
using IncludeResolver = std::function<std::string(const std::string &)>;

/** Evaluates one cat file against one candidate execution. */
class Evaluator
{
  public:
    /**
     * @param candidate the candidate execution (owned by caller)
     * @param flags     variant flags ("SEA_R", "FEAT_ExS", ...)
     * @param resolver  include resolution (empty = includes are errors)
     */
    Evaluator(const CandidateExecution &candidate,
              const std::map<std::string, bool> &flags,
              IncludeResolver resolver);

    /** Evaluate all statements; returns the collected check outcomes. */
    EvalResult evaluateFile(const CatFile &file);

    /** Look up a binding (for tests), fatal() when absent. */
    const Value &binding(const std::string &name) const;

  private:
    void installBuiltins();
    void evaluateStatements(const std::vector<Statement> &statements,
                            EvalResult &result);
    Value eval(const Expr &expr);
    bool evalCond(const FlagCond &cond) const;

    const CandidateExecution &_cand;
    std::map<std::string, bool> _flags;
    IncludeResolver _resolver;
    std::map<std::string, Value> _env;
    std::size_t _n;
};

} // namespace rex::cat

#endif // REX_CAT_EVAL_HH
