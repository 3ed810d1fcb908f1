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
    : _profile(profile), _rng(seed ? seed : 0x9E3779B97F4A7C15ull)
{
}

RunStats
Runner::run(const LitmusTest &test, std::uint64_t runs)
{
    RunStats stats;
    Machine machine(test, _profile);
    std::vector<Machine::Transition> transitions;
    std::string key;
    for (std::uint64_t r = 0; r < runs; ++r) {
        machine.reset();
        std::uint64_t steps = 0;
        while (!machine.done()) {
            machine.enabled(transitions);
            if (transitions.empty()) {
                fatal("operational machine stuck in test " + test.name);
            }
            const auto &pick = transitions[_rng.pick(transitions.size())];
            machine.apply(pick);
            if (++steps > 100000)
                fatal("operational machine diverged in test " + test.name);
        }
        machine.outcomeKey(key);
        ++stats.runs;
        if (machine.conditionHolds())
            ++stats.observed;
        ++stats.histogram[key];
    }
    return stats;
}

} // namespace rex::op
