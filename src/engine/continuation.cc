#include "engine/continuation.hh"

#include <cinttypes>
#include <cstdlib>

#include "base/hash.hh"
#include "base/strings.hh"

namespace rex::engine {

namespace {

/** Parse the fixed 16-digit lower-case hex fingerprint field. */
bool
parseHex64(const std::string &field, std::uint64_t &out)
{
    if (field.size() != 16)
        return false;
    for (char c : field) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    out = std::strtoull(field.c_str(), nullptr, 16);
    return true;
}

/** Hex-encode @p text (2 lower-case digits per byte): axiom names stay
 *  one colon-free token whatever characters they contain. */
std::string
hexEncode(const std::string &text)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(text.size() * 2);
    for (unsigned char c : text) {
        out += digits[c >> 4];
        out += digits[c & 0xf];
    }
    return out;
}

bool
hexDecode(const std::string &hex, std::string &out)
{
    if (hex.size() % 2 != 0)
        return false;
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return -1;
    };
    out.clear();
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        int hi = nibble(hex[i]);
        int lo = nibble(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out += static_cast<char>((hi << 4) | lo);
    }
    return true;
}

bool
fail(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

} // namespace

std::uint64_t
shardJobFingerprint(const std::string &source, const std::string &variant,
                    const std::string &revision, std::uint64_t planTarget)
{
    FieldHasher fnv;
    fnv.str(source);
    fnv.str(variant);
    fnv.str(revision);
    fnv.u64(planTarget);
    return fnv.hash;
}

std::uint64_t
continuationFingerprint(const std::string &source,
                        const std::string &variant,
                        const std::string &revision,
                        const ContinuationState &state)
{
    FieldHasher fnv;
    fnv.u64(shardJobFingerprint(source, variant, revision,
                                state.planTarget));
    fnv.u64(state.planSize);
    fnv.u64(state.nextShard);
    fnv.u64(state.nextOffset);
    const CachedVerdict &prefix = state.prefix;
    fnv.u64(prefix.candidates);
    fnv.u64(prefix.consistent);
    fnv.u64(prefix.witnesses);
    fnv.u64(prefix.constrainedUnpredictable);
    fnv.u64(prefix.unknownSideEffects);
    fnv.str(prefix.forbiddingAxiom);
    fnv.u64(prefix.forbiddingCycle.size());
    for (EventId id : prefix.forbiddingCycle)
        fnv.u64(id);
    return fnv.hash;
}

std::string
serializeContinuation(const ContinuationState &state)
{
    const CachedVerdict &prefix = state.prefix;
    std::string token = format(
        "%s:%016" PRIx64 ":%" PRIu64 ":%" PRIu64 ":%" PRIu64 ":%" PRIu64
        ":%" PRIu64 ":%" PRIu64 ":%" PRIu64 ":%" PRIu64 ":%" PRIu64
        ":%s:%zu",
        kContinuationMagic, state.fingerprint, state.planTarget,
        state.planSize, state.nextShard, state.nextOffset,
        prefix.candidates, prefix.consistent, prefix.witnesses,
        prefix.constrainedUnpredictable, prefix.unknownSideEffects,
        hexEncode(prefix.forbiddingAxiom).c_str(),
        prefix.forbiddingCycle.size());
    for (EventId id : prefix.forbiddingCycle)
        token += format(":%" PRIu32, id);
    return token;
}

bool
parseContinuation(const std::string &token, ContinuationState &out,
                  std::string *error)
{
    const std::vector<std::string> fields = split(token, ':');
    if (fields.size() < 13)
        return fail(error, "continuation: too few fields");
    if (fields[0] != kContinuationMagic) {
        return fail(error, "continuation: bad magic '" + fields[0] +
                           "' (want " + kContinuationMagic + ")");
    }
    ContinuationState state;
    CachedVerdict &prefix = state.prefix;
    if (!parseHex64(fields[1], state.fingerprint))
        return fail(error, "continuation: malformed fingerprint");
    struct FieldSlot {
        std::size_t index;
        std::uint64_t *value;
        const char *name;
    };
    const FieldSlot slots[] = {
        {2, &state.planTarget, "plan target"},
        {3, &state.planSize, "plan size"},
        {4, &state.nextShard, "next shard"},
        {5, &state.nextOffset, "next offset"},
        {6, &prefix.candidates, "candidates"},
        {7, &prefix.consistent, "consistent"},
        {8, &prefix.witnesses, "witnesses"},
        {9, &prefix.constrainedUnpredictable, "cu count"},
        {10, &prefix.unknownSideEffects, "unknown count"},
    };
    for (const FieldSlot &slot : slots) {
        if (!parseCanonicalU64(fields[slot.index], *slot.value)) {
            return fail(error, std::string("continuation: malformed ") +
                               slot.name);
        }
    }
    if (!hexDecode(fields[11], prefix.forbiddingAxiom))
        return fail(error, "continuation: malformed axiom");
    std::uint64_t cycleLen = 0;
    if (!parseCanonicalU64(fields[12], cycleLen))
        return fail(error, "continuation: malformed cycle length");
    if (cycleLen != fields.size() - 13)
        return fail(error, "continuation: cycle length mismatch");
    prefix.forbiddingCycle.reserve(static_cast<std::size_t>(cycleLen));
    for (std::size_t i = 13; i < fields.size(); ++i) {
        std::uint64_t id = 0;
        if (!parseCanonicalU64(fields[i], id) || id > 0xffffffffull)
            return fail(error, "continuation: malformed cycle event");
        prefix.forbiddingCycle.push_back(static_cast<EventId>(id));
    }
    prefix.observable = prefix.witnesses > 0;
    if (state.planTarget == 0)
        return fail(error, "continuation: zero plan target");
    out = std::move(state);
    return true;
}

} // namespace rex::engine
