/**
 * @file
 * catc clause bytecode: the flat program form the cat compiler lowers
 * models into.
 *
 * A Program is an SSA-ish sequence of ops over Relation/EventSet
 * registers — op i defines register i, operands always refer to earlier
 * ops — followed by a list of axiom checks (acyclic / irreflexive /
 * empty) over those registers. Leaf values are Inputs: the primitive
 * relations and event-kind sets of a CandidateExecution, exactly the
 * built-in vocabulary the cat evaluator installs
 * (src/cat/eval.cc installBuiltins).
 *
 * The split that makes compilation pay off is between witness inputs
 * (rf, co, interrupt — existentially quantified per candidate) and
 * skeleton inputs (everything else — fixed within one trace
 * combination): the executor (exec.hh) constant-folds every op whose
 * transitive inputs are all skeleton inputs once per combination, so
 * the per-candidate dispatch loop only touches the witness-dependent
 * tail. See docs/COMPILER.md.
 */

#ifndef REX_CATC_BYTECODE_HH
#define REX_CATC_BYTECODE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "events/candidate.hh"

namespace rex::catc {

/** Leaf values: the cat built-ins, loaded from a CandidateExecution. */
enum class Input : std::uint8_t {
    // Witness relations: vary per candidate, never folded.
    Rf,
    Co,
    Interrupt,

    // Skeleton relations: fixed within a trace combination.
    Po,
    PoLoc,
    Loc,
    Addr,
    Data,
    Ctrl,
    Rmw,
    Iio,
    Int,  //!< same-thread pairs
    Id,   //!< full identity

    // Event-kind sets (skeleton).
    R,
    W,
    M,
    IW,
    A,
    Q,
    L,
    Isb,
    Te,
    Tf,
    Eret,
    Mrs,
    Msr,
    TakeInterrupt,
    GicEvents,
    DmbSy,
    DmbLd,
    DmbSt,
    DsbSy,
    DsbLd,
    DsbSt,
    Universe,  //!< cat `_`

    Count_,
};

/** True for rf/co/interrupt: the per-candidate witness inputs. */
bool inputIsWitness(Input input);

/** True when @p input is an event set (false: a relation). */
bool inputIsSet(Input input);

/** The cat-source name of @p input ("po-loc", "DMB.SY", ...). */
const char *inputName(Input input);

/** The input named by a cat built-in identifier; Count_ when @p name
 *  is not a primitive input (derived names like "fr" compile to ops). */
Input inputByName(const std::string &name);

/** Load @p input from @p cand as a relation (inputIsSet must be
 *  false). */
Relation loadInputRel(Input input, const CandidateExecution &cand);

/** Load @p input from @p cand as a set (inputIsSet must be true). */
EventSet loadInputSet(Input input, const CandidateExecution &cand);

/**
 * One bytecode op. Register operands a/b/c index earlier ops; for
 * LoadInput, a is the Input id instead.
 */
enum class OpCode : std::uint8_t {
    LoadInput,       //!< a = Input id
    ZeroRel,         //!< empty relation
    ZeroSet,         //!< empty set
    UnionRel,        //!< rel(a) | rel(b)
    InterRel,        //!< rel(a) & rel(b)
    DiffRel,         //!< rel(a) - rel(b)
    UnionSet,        //!< set(a) | set(b)
    InterSet,        //!< set(a) & set(b)
    DiffSet,         //!< set(a) - set(b)
    Seq,             //!< rel(a) ; rel(b)
    Closure,         //!< rel(a)+
    RtClosure,       //!< rel(a)*
    OptionalRel,     //!< rel(a)?
    InverseRel,      //!< rel(a)^-1
    IdentityOn,      //!< [set(a)]
    ComplementSet,   //!< ~set(a)
    DomainOf,        //!< domain(rel(a))
    RangeOf,         //!< range(rel(a))
    RestrictDomain,  //!< [set(b)]; rel(a)
    RestrictRange,   //!< rel(a); [set(b)]
    Restricted,      //!< [set(b)]; rel(a); [set(c)]
    Cartesian,       //!< set(a) * set(b)
    Count_,
};

struct Op {
    OpCode code = OpCode::ZeroRel;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
};

/**
 * Store @p op's register operands in @p out, in a/b/c order, and
 * return how many there are (LoadInput's a is an Input id, not a
 * register, so it has none).
 */
int operandsOf(const Op &op, std::uint32_t out[3]);

/** What a register holds; assigned to every op by verify(). */
enum class RegKind : std::uint8_t { Rel, Set };

/** One axiom check over a register. */
struct Check {
    enum class Kind : std::uint8_t { Acyclic, Irreflexive, Empty };

    Kind kind = Kind::Acyclic;
    std::uint32_t reg = 0;
    std::string name;  //!< reported as the failed axiom
};

/** A compiled model: ops, checks, and (after verify()) register
 *  kinds. */
struct Program {
    std::vector<Op> ops;
    std::vector<Check> checks;

    /** Kind of each register; filled by verify(), empty before. */
    std::vector<RegKind> kinds;

    /** Stable identity (model revision + variant), for the worker
     *  protocol and diagnostics. */
    std::string id;

    /** Disassembly for docs/diagnostics. */
    std::string toString() const;
};

/**
 * Validate @p program: every operand register is defined by an earlier
 * op, operand kinds match the op (relations where relations are
 * required, sets where sets are), Input ids are in range, and every
 * check references a defined relation register (Empty also accepts a
 * set register). Fills program.kinds on success.
 *
 * @return empty string when valid, else a one-line diagnostic.
 */
std::string verify(Program &program);

} // namespace rex::catc

#endif // REX_CATC_BYTECODE_HH
