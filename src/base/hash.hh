/**
 * @file
 * The two stable hashes behind every persisted or exchanged derived
 * value: FNV-1a 64 (cache addresses and checksums, ETags, continuation
 * and hammer fingerprints, figure seeds) and splitmix64 (seed
 * finalisation, fault-injection decisions, retry jitter). They must
 * never change; each caller keeps its own mixing on top, and test_base
 * pins the derived values.
 */

#ifndef REX_BASE_HASH_HH
#define REX_BASE_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rex {

/** FNV-1a 64's offset basis: the hash of no bytes. */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** FNV-1a 64 over @p size bytes at @p data, continuing from @p hash. */
inline std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

inline std::uint64_t
fnv1a(std::uint64_t hash, std::string_view text)
{
    return fnv1a(hash, text.data(), text.size());
}

/** FNV-1a over length-prefixed fields, so structurally different inputs
 *  cannot collide by concatenating to the same bytes. Integers are
 *  mixed as their native 8-byte representation. */
struct FieldHasher {
    std::uint64_t hash = kFnvOffset;

    void
    u64(std::uint64_t value)
    {
        hash = fnv1a(hash, &value, sizeof(value));
    }

    void
    str(std::string_view value)
    {
        u64(value.size());
        hash = fnv1a(hash, value);
    }
};

/** splitmix64's golden-ratio increment. */
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ull;

/** splitmix64: the output of a generator in state @p x (advance by the
 *  gamma, then mix); a well-mixed 64->64 hash. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += kSplitmixGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace rex

#endif // REX_BASE_HASH_HH
