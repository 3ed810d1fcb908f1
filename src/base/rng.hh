/**
 * @file
 * Small deterministic RNG (xorshift64*), shared by the litmus
 * synthesizer (src/gen), the operational runner's random scheduler
 * (the hw-refs observation counts) and the fuzz corpus.
 *
 * Determinism is load-bearing everywhere this is used: a seed fully
 * determines the stream, so a generated test is reproducible from its
 * seed alone (the hammer's checkpoints store seeds, not test sources)
 * and byte-identical across platforms and job counts. Do not change
 * the recurrence without bumping gen::kGeneratorRevision.
 */

#ifndef REX_BASE_RNG_HH
#define REX_BASE_RNG_HH

#include <cstdint>

namespace rex {

/** Small deterministic RNG (xorshift64*). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed ? seed : 1) {}

    std::uint64_t
    next()
    {
        _state ^= _state >> 12;
        _state ^= _state << 25;
        _state ^= _state >> 27;
        return _state * 0x2545F4914F6CDD1Dull;
    }

    /** Uniform in [0, bound). */
    std::uint64_t pick(std::uint64_t bound) { return next() % bound; }

    bool chance(unsigned percent) { return pick(100) < percent; }

  private:
    std::uint64_t _state;
};

} // namespace rex

#endif // REX_BASE_RNG_HH
