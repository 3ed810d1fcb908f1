/**
 * @file
 * Umbrella header for the rex ("Relaxed EXceptions") library: the public
 * API for reproducing "Precise exceptions in relaxed architectures".
 *
 * Typical use:
 *
 * @code
 *   #include "rex/rex.hh"
 *
 *   const rex::LitmusTest &test =
 *       rex::TestRegistry::instance().get("SB+dmb.sy+eret");
 *   bool allowed = rex::isAllowed(test, rex::ModelParams::base());
 * @endcode
 *
 * Layers (bottom-up):
 *  - relation/  dense relation algebra over candidate-execution events
 *  - isa/       the AArch64-subset assembler and instruction model
 *  - events/    candidate executions (events + witness relations)
 *  - sem/       per-thread micro-operational semantics
 *  - litmus/    litmus tests: format, parser, built-in library
 *  - axiomatic/ candidate enumeration and the checker
 *  - cat/       the cat-language interpreter and the shipped Figure 9
 *               model; catc/ compiles that model for the checker
 *  - gic/       the GICv3 SGI model (Figure 10 automaton)
 *  - operational/ the abstract-microarchitecture simulator
 *  - engine/    parallel batch execution, verdict cache, JSONL results
 *  - harness/   paper-figure reproduction and table rendering
 */

#ifndef REX_REX_HH
#define REX_REX_HH

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "axiomatic/model.hh"
#include "axiomatic/params.hh"
#include "cat/catmodel.hh"
#include "engine/batch.hh"
#include "engine/cache.hh"
#include "engine/pool.hh"
#include "engine/results.hh"
#include "events/candidate.hh"
#include "gic/cpu_interface.hh"
#include "gic/gic.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "isa/assembler.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "operational/explorer.hh"
#include "operational/runner.hh"

#endif // REX_REX_HH
