#include "operational/runner.hh"

#include "base/logging.hh"
#include "base/strings.hh"

namespace rex::op {

std::string
RunStats::cell() const
{
    return format("%llu/%llu",
                  static_cast<unsigned long long>(observed),
                  static_cast<unsigned long long>(runs));
}

Runner::Runner(const CoreProfile &profile, std::uint64_t seed)
    : _profile(profile), _state(seed ? seed : 0x9E3779B97F4A7C15ull)
{
}

std::uint64_t
Runner::nextRandom()
{
    // xorshift64*: fast, deterministic, good enough for scheduling.
    _state ^= _state >> 12;
    _state ^= _state << 25;
    _state ^= _state >> 27;
    return _state * 0x2545F4914F6CDD1Dull;
}

RunStats
Runner::run(const LitmusTest &test, std::uint64_t runs)
{
    RunStats stats;
    Machine machine(test, _profile);
    std::vector<Machine::Transition> transitions;
    for (std::uint64_t r = 0; r < runs; ++r) {
        machine.reset();
        std::uint64_t steps = 0;
        while (!machine.done()) {
            machine.enabled(transitions);
            if (transitions.empty()) {
                fatal("operational machine stuck in test " + test.name);
            }
            const auto &pick = transitions[
                nextRandom() % transitions.size()];
            machine.apply(pick);
            if (++steps > 100000)
                fatal("operational machine diverged in test " + test.name);
        }
        Outcome outcome = machine.outcome();
        ++stats.runs;
        if (outcome.satisfiesCondition(test))
            ++stats.observed;
        ++stats.histogram[outcome.key()];
    }
    return stats;
}

} // namespace rex::op
