/**
 * @file
 * Randomised running of the operational machine: the substitute for the
 * paper's hardware test harness. Produces observation-frequency rows
 * like the figures' hw-refs columns.
 */

#ifndef REX_OPERATIONAL_RUNNER_HH
#define REX_OPERATIONAL_RUNNER_HH

#include <cstdint>
#include <map>
#include <string>

#include "base/rng.hh"
#include "litmus/litmus.hh"
#include "operational/machine.hh"
#include "operational/profile.hh"

namespace rex::op {

/** Result of a batch of randomised runs. */
struct RunStats {
    std::uint64_t runs = 0;

    /** Runs whose final state satisfied the test's condition. */
    std::uint64_t observed = 0;

    /** Histogram over outcome keys. */
    std::map<std::string, std::uint64_t> histogram;

    /** "162/33000"-style cell for tables. */
    std::string cell() const;
};

/** Runs litmus tests on the operational machine with a random scheduler. */
class Runner
{
  public:
    /**
     * @param profile the simulated core
     * @param seed    RNG seed (runs are deterministic given a seed)
     */
    explicit Runner(const CoreProfile &profile, std::uint64_t seed = 42);

    /** Run @p test @p runs times; collect outcome statistics. */
    RunStats run(const LitmusTest &test, std::uint64_t runs);

  private:
    CoreProfile _profile;
    Rng _rng;
};

} // namespace rex::op

#endif // REX_OPERATIONAL_RUNNER_HH
