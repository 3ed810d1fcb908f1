/**
 * @file
 * The batch-execution engine: shards (test × variant) work across a
 * work-stealing thread pool, memoizes verdicts in the content-addressed
 * cache, and streams one JSONL record per job to the results sink.
 *
 * The engine is the single parallelism primitive of the library: the
 * harness, the bench matrices, the fuzz corpus, and the command-line
 * oracle all express their work as ordered map() calls over an Engine,
 * so results are assembled in deterministic submission order and the
 * rendered output is byte-identical for every job count. With jobs == 1
 * the engine runs every task inline on the calling thread — the exact
 * legacy serial path, with no pool and no reordering of any kind.
 *
 * Configuration knobs (CLI flags override the environment):
 *   REX_JOBS             worker count; 0/unset = hardware concurrency,
 *                        1 = serial
 *   REX_CACHE            "0" disables verdict memoization entirely
 *   REX_CACHE_DIR        on-disk persistence directory (".rex-cache")
 *   REX_CACHE_MAX_BYTES  on-disk cache byte cap; 0/unset = unlimited
 *   REX_RESULTS          JSONL results path
 *   REX_WORKERS          supervised worker processes; 0/unset = run
 *                        checks in-thread (the legacy path, default)
 *
 * The supervision limits (crash quarantine, kill grace, crash-ledger
 * cap) have no environment form: rexd sets them from its flags.
 */

#ifndef REX_ENGINE_BATCH_HH
#define REX_ENGINE_BATCH_HH

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "axiomatic/checker.hh"
#include "axiomatic/params.hh"
#include "engine/cache.hh"
#include "engine/continuation.hh"
#include "engine/governor.hh"
#include "engine/pool.hh"
#include "engine/results.hh"
#include "engine/supervisor.hh"
#include "litmus/litmus.hh"

namespace rex::engine {

/** Engine construction parameters. */
struct EngineConfig {
    /** Worker threads: 0 = hardware concurrency, 1 = inline/serial. */
    unsigned jobs = 0;

    /** Master switch for verdict memoization. */
    bool cacheEnabled = true;

    /** Cache persistence directory; empty = in-memory only. */
    std::string cacheDir;

    /** On-disk cache byte cap (oldest-mtime eviction); 0 = unlimited. */
    std::uint64_t cacheMaxBytes = 0;

    /** JSONL results path; empty = no results file. */
    std::string resultsPath;

    /** Model revision baked into cache keys. */
    std::string modelRevision = kModelRevision;

    /**
     * Supervised worker processes (engine/supervisor.hh): 0 = disabled,
     * every check runs in-thread (the legacy path — byte-identical
     * output to engines predating supervision). With workers > 0, each
     * cache-missing check of a test that carries its source text runs
     * in a pre-forked worker process; a worker crash yields a
     * CrashedWorker verdict for that job only.
     */
    unsigned workers = 0;

    /** Crashes of one (test, variant) key before quarantine; 0 = off.
     *  Only meaningful with workers > 0. */
    unsigned crashQuarantine = 3;

    /** Grace past the cooperative deadline before SIGKILL (workers). */
    std::uint64_t killGraceMs = 2000;

    /** Crash-ledger entry cap (LRU eviction, rexd --crash-ledger-max);
     *  0 = unbounded. */
    std::uint64_t crashLedgerMax = 4096;

    /** Defaults from REX_CACHE / REX_CACHE_DIR / REX_CACHE_MAX_BYTES /
     *  REX_RESULTS / REX_WORKERS; REX_JOBS is resolved at engine
     *  construction. */
    static EngineConfig fromEnv();
};

/** A configured batch-execution engine. */
class Engine
{
  public:
    explicit Engine(EngineConfig config = EngineConfig::fromEnv());

    /** Effective worker count (1 = inline serial execution). */
    unsigned jobs() const { return _jobs; }

    const EngineConfig &config() const { return _config; }
    VerdictCache &cache() { return _cache; }
    ResultsSink &results() { return _sink; }

    /** The worker-process supervisor; null when workers are disabled. */
    Supervisor *supervisor() { return _supervisor.get(); }
    const Supervisor *supervisor() const { return _supervisor.get(); }

    /**
     * Ordered parallel map: run fn(0) .. fn(count-1) across the pool and
     * return the results indexed by input — deterministic regardless of
     * schedule. Exceptions rethrow in the caller at the failing index.
     * With jobs == 1, runs inline in index order (the legacy path).
     */
    template <typename Fn>
    auto
    map(std::size_t count, Fn fn)
        -> std::vector<std::invoke_result_t<Fn, std::size_t>>
    {
        using Result = std::invoke_result_t<Fn, std::size_t>;
        std::vector<Result> out;
        out.reserve(count);
        if (!_pool) {
            for (std::size_t i = 0; i < count; ++i)
                out.push_back(fn(i));
            return out;
        }
        std::vector<std::future<Result>> futures;
        futures.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            futures.push_back(_pool->submit([fn, i]() { return fn(i); }));
        for (std::future<Result> &future : futures)
            out.push_back(future.get());
        return out;
    }

    /**
     * Verdict-only check of @p test under @p params: cached, witness-less
     * (the checker short-circuits on the first witness), recorded in the
     * results sink with wall time and cache-hit flag, enforced by a
     * Governor built from @p budget (an unlimited budget runs
     * ungoverned). When the budget trips, the result carries the
     * tripped axis in exhaustedAxis, partial counts, and observable
     * false; it is NOT stored in the verdict cache. A check that
     * completes within budget is indistinguishable from — and cached
     * exactly like — an unbudgeted one.
     */
    CheckResult verdict(const LitmusTest &test, const ModelParams &params,
                        const Budget &budget = {});

    /**
     * Like verdict(), but returning the full JobRecord that was
     * appended to the results sink — verdict plus wall time, cache-hit
     * flag and, on a trip, verdict "ExhaustedBudget" with the tripped
     * axis and the stage reached. This is rexd's serving path: the
     * record is exactly one JSONL response line.
     *
     * With @p resumable, the check walks the deterministic
     * kCheckShardTarget plan (checkShardRange) and a budget trip yields
     * a record carrying a `rex-cont-v1` token (record.continuation)
     * whose state — cursor plus the partial counts merged so far — this
     * method accepts back as @p resume to continue exactly where the
     * previous piece stopped. Stitched pieces converge to a final record
     * whose verdict, counts, and forbidding diagnostic are
     * byte-identical to an uninterrupted run at any split point and any
     * REX_JOBS; the intermediate pieces' partial counts are the merged
     * enumeration-order prefix (deadline splits are therefore
     * schedule-dependent, the final verdict never is). Resumable checks
     * run in-thread, never supervised.
     *
     * @p resume must have been fingerprint-validated by the caller
     * (service.cc refuses mismatches with 409 before calling). The
     * fingerprint is not a secret, so the engine also checks the token
     * against the re-derived plan and throws ContinuationRefused on a
     * mismatch. A verdict that used a token's counts is never cached:
     * they are the client's word, not this engine's computation.
     */
    JobRecord verdictRecord(const LitmusTest &test,
                            const ModelParams &params,
                            const Budget &budget = {},
                            bool resumable = false,
                            const ContinuationState *resume = nullptr);

    /** verdictRecord() with @p resumable set. */
    JobRecord
    verdictRecordResumable(const LitmusTest &test,
                           const ModelParams &params, const Budget &budget,
                           const ContinuationState *resume = nullptr)
    {
        return verdictRecord(test, params, budget, true, resume);
    }

    /** Tasks queued (not yet running) in the pool; 0 when serial. */
    std::size_t
    poolQueueDepth() const
    {
        return _pool ? _pool->queueDepth() : 0;
    }

    /**
     * Candidates enumerated over the engine's lifetime, including those
     * of checks still in flight — monotonic, for the /metrics counter.
     */
    std::uint64_t
    candidatesEnumerated() const
    {
        return _candidatesTotal.load(std::memory_order_relaxed) +
               liveCandidates();
    }

    /** Candidates admitted by checks currently in flight — in-thread
     *  budgeted checks plus busy supervised workers (their shared
     *  status-page counters) — the enumeration-progress gauge. */
    std::uint64_t
    liveCandidates() const
    {
        return _liveCandidates.load(std::memory_order_relaxed) +
               (_supervisor ? _supervisor->liveCandidates() : 0);
    }

    /** Convenience wrapper over verdict(). */
    bool
    isAllowed(const LitmusTest &test, const ModelParams &params)
    {
        return verdict(test, params).observable;
    }

    /**
     * The process-wide default engine (configured from the environment
     * at first use): what the harness entry points run on when no
     * explicit engine is passed.
     */
    static Engine &shared();

  private:
    /** The one lookup/compute/record path behind verdict() and
     *  verdictRecord(): fills @p record and returns its verdict. */
    CachedVerdict verdictCommon(const LitmusTest &test,
                                const ModelParams &params,
                                JobRecord &record, const Budget &budget,
                                bool resumable,
                                const ContinuationState *resume);

    EngineConfig _config;
    unsigned _jobs = 1;
    /** Created before (so forked before) any engine thread exists. */
    std::unique_ptr<Supervisor> _supervisor;
    std::unique_ptr<ThreadPool> _pool;
    VerdictCache _cache;
    ResultsSink _sink;
    std::atomic<std::uint64_t> _liveCandidates{0};
    std::atomic<std::uint64_t> _candidatesTotal{0};
};

} // namespace rex::engine

#endif // REX_ENGINE_BATCH_HH
