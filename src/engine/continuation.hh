/**
 * @file
 * `rex-cont-v1`: the compact serialized form of a budget-tripped staged
 * check — the enumeration cursor (shard index into the deterministic
 * plan, in-shard candidate offset) plus the partial counts accumulated
 * before the trip — fingerprinted so a resumed piece can only ever run
 * against the exact job that issued it.
 *
 * The fingerprint hashes the job identity (test source, variant, model
 * revision, shard-plan target) *and* every payload field of the token,
 * so a stale token (model revision bumped, test source edited) or a
 * corrupted one fails a single comparison and is refused — the same
 * posture as the hammer checkpoint's fingerprint (gen/hammer). It is an
 * unkeyed hash of public inputs, so it catches accidents, not forgery:
 * anyone can recompute it. The engine therefore also checks a token's
 * plan target, plan size and cursor against the re-derived plan
 * (ContinuationRefused on a mismatch), and never caches a verdict that
 * used a token's counts.
 *
 * Resumed-in-pieces runs are byte-identical to uninterrupted ones: the
 * token's counts are the exact enumeration-order prefix below the
 * cursor, the cursor always points at the first candidate whose model
 * evaluation did not finish, and the plan the cursor indexes into is a
 * pure function of (test, planTarget) re-derived identically on every
 * node at the pinned model revision.
 */

#ifndef REX_ENGINE_CONTINUATION_HH
#define REX_ENGINE_CONTINUATION_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "engine/cache.hh"

namespace rex::engine {

/** Token prefix; bump on any layout or semantics change. */
inline constexpr const char *kContinuationMagic = "rex-cont-v1";

/** A paused staged check: its cursor plus the verdict of the prefix
 *  below it. */
struct ContinuationState {
    /** continuationFingerprint() over the job identity and every field
     *  below; recomputed and compared on acceptance. */
    std::uint64_t fingerprint = 0;

    /** Witness assignments per shard the plan was built with. */
    std::uint64_t planTarget = 0;

    /** Total shards in the plan (sanity-checked after re-planning). */
    std::uint64_t planSize = 0;

    /** First shard not yet fully merged. */
    std::uint64_t nextShard = 0;

    /** Candidates into that shard already merged. */
    std::uint64_t nextOffset = 0;

    /**
     * The merged verdict of the enumeration-order prefix below the
     * cursor: its counts and its first satisfying candidate's
     * rejection. observable is not serialized; a parsed token sets it
     * to witnesses > 0, as the merge that produced it did.
     */
    CachedVerdict prefix;
};

/**
 * Thrown when a token cannot resume the job it is replayed against: its
 * fingerprint does not match (rexd's service checks that), or its plan
 * target, plan size or cursor does not fit the re-derived plan (the
 * engine checks those). rexd answers 409 Conflict: the request is
 * well-formed, the state disagrees.
 */
struct ContinuationRefused : public std::runtime_error {
    using std::runtime_error::runtime_error;
};

/**
 * Fingerprint of a shard job's identity — what must match for two
 * processes (or two points in time) to derive the same plan and mean
 * the same thing by "shard i": test source, variant, model revision,
 * plan target. The identity half of every continuation fingerprint.
 */
std::uint64_t shardJobFingerprint(const std::string &source,
                                  const std::string &variant,
                                  const std::string &revision,
                                  std::uint64_t planTarget);

/** Full-token fingerprint: shardJobFingerprint() of the identity plus
 *  every payload field of @p state (state.fingerprint excluded). */
std::uint64_t continuationFingerprint(const std::string &source,
                                      const std::string &variant,
                                      const std::string &revision,
                                      const ContinuationState &state);

/** Render @p state as a single-line `rex-cont-v1:...` token. */
std::string serializeContinuation(const ContinuationState &state);

/**
 * Parse a token produced by serializeContinuation(). Strict: any
 * malformed field fails the whole parse.
 * @return false (with @p error set when non-null) on malformed input;
 *         fingerprint *validation* is the caller's job — parse only
 *         checks shape.
 */
bool parseContinuation(const std::string &token, ContinuationState &out,
                       std::string *error = nullptr);

} // namespace rex::engine

#endif // REX_ENGINE_CONTINUATION_HH
