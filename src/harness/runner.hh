/**
 * @file
 * Figure-reproduction harness: renders, for a litmus test, the same
 * information the paper's figures report — the allowed/forbidden verdict
 * under the baseline model, the hw-refs column (here: hw-sim refs from
 * the operational simulator under the four device profiles), and the
 * param-refs column (model verdicts under the paper's variants).
 */

#ifndef REX_HARNESS_RUNNER_HH
#define REX_HARNESS_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "axiomatic/params.hh"
#include "engine/batch.hh"
#include "litmus/litmus.hh"
#include "operational/profile.hh"

namespace rex::harness {

/** Options for figure reproduction. */
struct FigureOptions {
    /** Randomised runs per device profile for the hw-sim column. */
    std::uint64_t runsPerDevice = 20000;

    /** Base RNG seed. */
    std::uint64_t seed = 42;

    /** Include the hw-sim columns (slower). */
    bool hwSim = true;

    /** Model variants for the param-refs column. */
    std::vector<ModelParams> variants = ModelParams::paperVariants();

    /**
     * The hw-sim RNG seed for one (test, profile) run: the base seed
     * hashed with the test and profile names, so every run is seeded
     * independently of scheduling — frequency tables are reproducible
     * under any parallel schedule, and every (test, device) pair sees a
     * distinct schedule stream.
     */
    std::uint64_t seedFor(const std::string &test_name,
                          const std::string &profile_name) const;
};

/**
 * Render a paper-figure-style block for @p test: listing, verdict,
 * hw-sim refs, param-refs. The hw-sim profile runs and the per-variant
 * verdicts run as independent jobs on
 * @p engine; output is assembled in deterministic order, so it is
 * byte-identical for every job count.
 */
std::string reproduceFigure(const LitmusTest &test,
                            const FigureOptions &options,
                            engine::Engine &engine);

/** reproduceFigure on the shared (REX_JOBS-configured) engine. */
std::string reproduceFigure(const LitmusTest &test,
                            const FigureOptions &options);

/**
 * Render the whole-suite matrix: one row per test, with the model
 * verdict under every paper variant and the expected verdicts, flagging
 * mismatches. The (test × variant) verdicts run as independent engine
 * jobs; rows are reassembled in input order.
 * @return the table plus a trailing "n mismatches" line.
 */
std::string suiteMatrix(const std::vector<const LitmusTest *> &tests,
                        engine::Engine &engine);

/** suiteMatrix on the shared (REX_JOBS-configured) engine. */
std::string suiteMatrix(const std::vector<const LitmusTest *> &tests);

} // namespace rex::harness

#endif // REX_HARNESS_RUNNER_HH
