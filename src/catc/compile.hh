/**
 * @file
 * The cat-model compiler: lower a parsed .cat AST into clause bytecode
 * (bytecode.hh). Production programs come from the shipped
 * models/aarch64-exceptions.cat, embedded in the library.
 *
 * Model parameters are baked in at compile time — `if "FLAG"`
 * expressions are resolved during lowering, never dispatched at
 * runtime — and identical ops are value-numbered into one register,
 * so a program is compiled once per (variant, model-revision) and
 * reused across every test and candidate. Four generic passes keep the
 * lowered program as small as a hand-written one (docs/COMPILER.md):
 * `irreflexive r+` checks `acyclic r`; `[S]; r; [T]` and its one-sided
 * forms become one restriction op; unions keep their
 * witness-independent and witness-dependent halves apart, so the
 * constant half folds into one register; and ops no check reads are
 * dropped.
 */

#ifndef REX_CATC_COMPILE_HH
#define REX_CATC_COMPILE_HH

#include <map>
#include <optional>
#include <string>

#include "axiomatic/params.hh"
#include "cat/ast.hh"
#include "catc/bytecode.hh"

namespace rex::catc {

/**
 * Compile the shipped aarch64-exceptions.cat for @p params. The
 * program's checks are named like checkConsistent's axioms
 * ("internal", "external", "atomic") and produce the same verdicts and
 * the same cycles.
 *
 * @param include_internal emit the internal (SC-per-location) check;
 *        the staged checker omits it because the enumerator's coherence
 *        pre-filter already established it (internal_prechecked).
 */
Program compileNative(const ModelParams &params, bool include_internal);

/** Outcome of compiling a cat AST: a verified program, or the reason
 *  the file is outside the compilable subset. */
struct CatCompileResult {
    std::optional<Program> program;
    std::string error;
};

/**
 * Lower a parsed cat file to bytecode under a fixed flag assignment.
 *
 * The compilable subset is everything the shipped models use:
 * non-recursive lets, all expression forms, and acyclic / irreflexive /
 * empty checks. `let rec`, `include` (flatten first — CatModel does at
 * load), and `flag` diagnostics are rejected with an explanatory error;
 * callers fall back to the interpreter. A compiled `irreflexive r+`
 * reports a cycle of r where the interpreter reports a 1-cycle.
 */
CatCompileResult compileCat(const cat::CatFile &file,
                            const std::map<std::string, bool> &flags);

} // namespace rex::catc

#endif // REX_CATC_COMPILE_HH
