/**
 * @file
 * The process-wide compiled-program cache.
 *
 * Programs are keyed by programId() — "catc1:<model-revision>:<params>",
 * where <params> is engine::canonicalParamsText() over every
 * ModelParams field — so a program is compiled once per (model,
 * model revision) and shared by every test, shard, and rexd request in
 * the process. rexd's supervised workers are separate processes: the
 * parent warms the cache before workers fork, and a worker forked
 * earlier compiles on its first use.
 *
 * The compiled program is the checker's only Figure 9 evaluator;
 * checkTest, range checks, the soundness hammer and the harness cat
 * cross-check all fold planForCheck()'s shared plan.
 */

#ifndef REX_CATC_CACHE_HH
#define REX_CATC_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "axiomatic/params.hh"
#include "catc/bytecode.hh"

namespace rex::catc {

/** Process-wide compile/cache counters (rexd_model_compiles_total and
 *  friends). */
struct CompileStats {
    std::uint64_t compiles = 0; //!< programs compiled
    std::uint64_t hits = 0;     //!< cache lookups served without compiling
    std::uint64_t misses = 0;   //!< cache lookups that had to compile
};

CompileStats compileStats();

/** Cache key for @p params' staged program. Covers every
 *  ModelParams field and embeds engine::kModelRevision, so neither two
 *  models nor two revisions ever share a program. */
std::string programId(const ModelParams &params);

/**
 * The staged checker's program for @p params: the shipped
 * aarch64-exceptions.cat compiled without its internal check (the
 * enumerator's coherence pre-filter covers it), on first use. Never
 * returns null.
 */
std::shared_ptr<const Program> stagedProgram(const ModelParams &params);

class FoldPlan;

/**
 * The shared structural fold analysis (catc/exec.hh) of
 * stagedProgram(@p params), built on first use and cached beside the
 * program; never null. Sharing the plan keeps per-shard fold setup
 * proportional to the constant ops, not the whole program analysis.
 */
std::shared_ptr<const FoldPlan> planForCheck(const ModelParams &params);

} // namespace rex::catc

#endif // REX_CATC_CACHE_HH
