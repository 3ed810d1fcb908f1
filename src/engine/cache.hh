/**
 * @file
 * Content-addressed verdict cache.
 *
 * A verdict (the result of checkTest on one litmus test under one set of
 * model parameters) is pure: it depends only on the test's program text,
 * the parameter values, and the model implementation itself. The cache
 * keys entries by a stable hash of exactly those three inputs:
 *
 *   key = (canonical litmus text, canonical params text, model revision)
 *
 * The canonical litmus text is a full serialisation of the parsed test
 * (programs, handlers, initial registers/EL/masking, locations, initial
 * memory, final condition), so two textual variants that parse to the
 * same test share an entry, and any semantic difference changes the key.
 * kModelRevision must be bumped whenever the axiomatic model's semantics
 * change; this is what invalidates stale on-disk entries.
 *
 * Entries live in a thread-safe in-memory table, optionally persisted
 * one-file-per-entry under a cache directory (conventionally
 * `.rex-cache/`), so repeated bench/ctest invocations skip verdicts that
 * are already proved. Disk entries embed the full key text and are
 * verified on load, so a (vanishingly unlikely) hash collision degrades
 * to a miss, never to a wrong verdict.
 *
 * Disk entries are crash-safe in both directions: writes publish via
 * rename so readers never see a half-written file, and each entry
 * carries a checksum over its payload, so an entry torn by a crash (or
 * corrupted on disk) is detected on load, counted, deleted, and served
 * as a miss — a damaged cache costs re-checks, never wrong verdicts or
 * a stuck poisoned entry.
 *
 * The on-disk footprint is bounded: a configurable byte cap (0 =
 * unlimited) trims oldest-mtime entries at construction (so a cap
 * applies retroactively to a directory grown by earlier runs) and
 * whenever a store overflows it. Eviction only deletes files — the
 * in-memory table and correctness are unaffected; an evicted verdict
 * simply costs a re-check on some future run.
 *
 * Cached verdicts never carry a witness execution (witnesses are large
 * and only needed for diagnostics); callers that need the witness run
 * the checker directly.
 */

#ifndef REX_ENGINE_CACHE_HH
#define REX_ENGINE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "axiomatic/checker.hh"
#include "axiomatic/params.hh"
#include "litmus/litmus.hh"

namespace rex::engine {

/**
 * Revision tag of the axiomatic model implementation. Bump whenever a
 * verdict can change: the shipped models (the .cat files under
 * models/, embedded at build time), the catc lowering and bytecode
 * that compile them (src/catc), candidate enumeration
 * (src/axiomatic/enumerate.cc) or thread semantics (src/sem), so
 * persisted verdicts and continuation tokens of the old model are
 * invalidated.
 */
inline constexpr const char *kModelRevision = "fig9-catc-r2";

/** Full, stable serialisation of a parsed litmus test. */
std::string canonicalTestText(const LitmusTest &test);

/** Stable serialisation of every model parameter. */
std::string canonicalParamsText(const ModelParams &params);

/** A cache key: the canonical text plus its content hash. */
struct VerdictKey {
    std::string text;
    std::uint64_t hash = 0;

    static VerdictKey make(const LitmusTest &test,
                           const ModelParams &params,
                           const std::string &revision = kModelRevision);

    /** 16-hex-digit content address (the on-disk file stem). */
    std::string hashHex() const;
};

/**
 * The witness-less verdict value below CheckResult: what the cache
 * stores, a supervised worker returns and a continuation token carries
 * as its prefix. writeFields()/readFields() are its one text codec,
 * shared by the rex-verdict-v2 disk entry and the rex-verdict-ipc-v1
 * worker reply (docs/FORMAT.md).
 */
struct CachedVerdict {
    bool observable = false;
    std::uint64_t candidates = 0;
    std::uint64_t consistent = 0;
    std::uint64_t witnesses = 0;
    std::uint64_t constrainedUnpredictable = 0;
    std::uint64_t unknownSideEffects = 0;

    /** First satisfying candidate's failed axiom (forbidden verdicts). */
    std::string forbiddingAxiom;

    /** Its forbidding cycle, when the failure was a cyclicity check. */
    std::vector<EventId> forbiddingCycle;

    static CachedVerdict fromResult(const CheckResult &result);

    /** Rebuild a CheckResult (without witness). */
    CheckResult toResult() const;

    /** "axiom:3->7->12" summary for results records; "" when allowed. */
    std::string forbiddingSummary() const;

    /**
     * Append the verdict's field lines to @p out: "observable 0|1",
     * "candidates N", "consistent N", "witnesses N", "cu N",
     * "unknown N", then "axiom NAME" and "cycle ID..." when set.
     * Axiom names hold no newline.
     */
    void writeFields(std::string &out) const;

    /**
     * Read the lines writeFields() writes from @p text at @p pos and
     * advance @p pos past them. Strict: the fields must come in
     * writeFields()'s order with canonical values, so an accepted
     * verdict writes back to exactly the bytes it was read from.
     * @return std::nullopt on a missing, malformed or misplaced field
     */
    static std::optional<CachedVerdict> readFields(std::string_view text,
                                                   std::size_t &pos);

    bool operator==(const CachedVerdict &) const = default;
};

/** Thread-safe verdict memoization with optional on-disk persistence. */
class VerdictCache
{
  public:
    /**
     * @param enabled   disabled caches miss on every lookup and drop
     *                  every store (the engine's bypass switch)
     * @param dir       persistence directory; empty = in-memory only
     * @param maxBytes  on-disk byte cap; 0 = unlimited. Enforced by
     *                  deleting oldest-mtime entries at construction
     *                  and on overflow after each store.
     * @param memMaxEntries  in-memory entry cap; 0 = unlimited. The
     *                  least-recently-touched entry is evicted on
     *                  overflow (the on-disk copy, if any, survives,
     *                  so eviction costs a disk read, never a recheck).
     */
    explicit VerdictCache(bool enabled = true, std::string dir = "",
                          std::uint64_t maxBytes = 0,
                          std::size_t memMaxEntries = 65536);

    bool enabled() const { return _enabled; }
    const std::string &dir() const { return _dir; }
    std::uint64_t maxBytes() const { return _maxBytes; }

    /** Find a verdict, consulting memory then disk. */
    std::optional<CachedVerdict> lookup(const VerdictKey &key);

    /** Record a verdict in memory and (when configured) on disk. */
    void store(const VerdictKey &key, const CachedVerdict &value);

    std::uint64_t hits() const { return _hits.load(); }
    std::uint64_t misses() const { return _misses.load(); }

    /** On-disk entries evicted by the byte cap so far. */
    std::uint64_t evictions() const { return _evictions.load(); }

    /** Corrupt/torn on-disk entries detected and deleted so far. */
    std::uint64_t corruptEvictions() const { return _corrupt.load(); }

    /** In-memory entries evicted by the memMaxEntries cap so far. */
    std::uint64_t memEvictions() const { return _memEvictions.load(); }

    /** In-memory entries currently held. */
    std::size_t entryCount();

    /** Bytes currently persisted under dir() (0 when not persisting). */
    std::uint64_t diskBytes();

  private:
    std::optional<CachedVerdict> loadFromDisk(const VerdictKey &key);
    void writeToDisk(const VerdictKey &key, const CachedVerdict &value);
    std::string entryPath(const VerdictKey &key) const;

    /** Delete a corrupt entry and drop it from the eviction index. */
    void evictCorrupt(const std::string &path);

    /** Build the (path, mtime, size) index by scanning dir(). */
    void scanDisk();

    /** Delete oldest-mtime entries until the cap holds. Needs _diskMutex. */
    void trimToCapLocked();

    /** One memoized verdict plus its LRU recency stamp. */
    struct MemEntry {
        CachedVerdict verdict;
        std::uint64_t touch = 0;
    };

    /** Evict the least-recently-touched entry past the cap. Needs
     *  _mutex. */
    void trimMemLocked();

    bool _enabled;
    std::string _dir;
    std::uint64_t _maxBytes;
    std::size_t _memMaxEntries;
    std::mutex _mutex;
    std::unordered_map<std::string, MemEntry> _entries;
    std::uint64_t _touchSeq = 0;  //!< guarded by _mutex

    /** One persisted entry, as tracked by the eviction index. */
    struct DiskEntry {
        std::string path;
        std::int64_t mtimeNanos = 0;
        std::uint64_t bytes = 0;
    };

    /** Guards the on-disk index (separate from the hot in-memory path). */
    std::mutex _diskMutex;
    std::vector<DiskEntry> _diskEntries;
    std::uint64_t _diskBytes = 0;

    std::atomic<std::uint64_t> _hits{0};
    std::atomic<std::uint64_t> _misses{0};
    std::atomic<std::uint64_t> _evictions{0};
    std::atomic<std::uint64_t> _corrupt{0};
    std::atomic<std::uint64_t> _memEvictions{0};
};

} // namespace rex::engine

#endif // REX_ENGINE_CACHE_HH
