#include "engine/batch.hh"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "axiomatic/enumerate.hh"
#include "base/logging.hh"
#include "engine/crashctx.hh"

namespace rex::engine {

namespace {

/** Parse a non-negative integer env var; @p fallback on absence or
 *  malformation (with a warning). */
std::uint64_t
envUnsigned(const char *name, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end && *end == '\0')
        return parsed;
    warn(std::string("ignoring malformed ") + name + "='" + env + "'");
    return fallback;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const char *env = std::getenv("REX_JOBS");
    if (env && *env) {
        char *end = nullptr;
        unsigned long parsed = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && parsed > 0)
            return static_cast<unsigned>(parsed);
        warn(std::string("ignoring malformed REX_JOBS='") + env + "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace

EngineConfig
EngineConfig::fromEnv()
{
    EngineConfig config;
    const char *cache = std::getenv("REX_CACHE");
    if (cache && std::string(cache) == "0")
        config.cacheEnabled = false;
    if (const char *dir = std::getenv("REX_CACHE_DIR"))
        config.cacheDir = dir;
    config.cacheMaxBytes =
        envUnsigned("REX_CACHE_MAX_BYTES", config.cacheMaxBytes);
    if (const char *results = std::getenv("REX_RESULTS"))
        config.resultsPath = results;
    config.workers = static_cast<unsigned>(
        envUnsigned("REX_WORKERS", config.workers));
    // jobs stays 0: resolved (REX_JOBS, then hardware concurrency) at
    // engine construction, so explicit EngineConfig{.jobs = n} wins.
    return config;
}

Engine::Engine(EngineConfig config)
    : _config(std::move(config)),
      _jobs(resolveJobs(_config.jobs)),
      _cache(_config.cacheEnabled, _config.cacheDir,
             _config.cacheMaxBytes)
{
    // Workers fork before the pool spawns threads: the initial worker
    // processes are forked from a single-threaded engine.
    if (_config.workers > 0) {
        SupervisorConfig supervision;
        supervision.workers = _config.workers;
        supervision.crashQuarantine = _config.crashQuarantine;
        supervision.killGraceMs = _config.killGraceMs;
        supervision.ledgerMaxEntries = _config.crashLedgerMax;
        _supervisor = std::make_unique<Supervisor>(supervision);
    }
    if (_jobs > 1)
        _pool = std::make_unique<ThreadPool>(_jobs);
    if (!_config.resultsPath.empty())
        _sink.open(_config.resultsPath);
}

CheckResult
Engine::verdict(const LitmusTest &test, const ModelParams &params,
                const Budget &budget)
{
    JobRecord record;
    CheckResult result = verdictCommon(test, params, record, budget,
                                       false, nullptr).toResult();
    result.exhaustedAxis = record.exhaustedAxis;
    result.observable = result.observable && result.complete();
    return result;
}

JobRecord
Engine::verdictRecord(const LitmusTest &test, const ModelParams &params,
                      const Budget &budget, bool resumable,
                      const ContinuationState *resume)
{
    JobRecord record;
    verdictCommon(test, params, record, budget, resumable, resume);
    return record;
}

CachedVerdict
Engine::verdictCommon(const LitmusTest &test, const ModelParams &params,
                      JobRecord &record, const Budget &budget,
                      bool resumable, const ContinuationState *resume)
{
    auto start = std::chrono::steady_clock::now();
    VerdictKey key =
        VerdictKey::make(test, params, kModelRevision);

    record.test = test.name;
    record.variant = params.name();
    if (resume && resume->planTarget != kCheckShardTarget) {
        throw ContinuationRefused(
            "continuation token was planned with a different shard "
            "target");
    }

    std::optional<CachedVerdict> cached = _cache.lookup(key);
    CachedVerdict verdict;
    bool exhausted = false;
    std::string verdictOverride;
    if (cached) {
        // A cached verdict is a completed one, so it satisfies any
        // budget and any resume: the stitched outcome of a resume
        // sequence equals the uninterrupted run the cache holds.
        verdict = *cached;
        record.cacheHit = true;
    } else if (_supervisor && !resumable && !test.sourceText.empty()) {
        // Supervised mode: the check runs in a worker process, so a
        // crash in enumeration costs this job, not this process. Only
        // tests carrying their source text can ship across the process
        // boundary; programmatic tests fall through to in-thread.
        const SupervisedOutcome outcome =
            _supervisor->run(test.sourceText, test.name, params.name(),
                             key.hashHex(), &budget);
        verdict = outcome.verdict;
        switch (outcome.kind) {
          case SupervisedOutcome::Kind::Ok:
            _candidatesTotal.fetch_add(verdict.candidates,
                                       std::memory_order_relaxed);
            // Worker verdicts are real verdicts: cached like in-thread
            // ones (the worker re-derives the same pure function).
            _cache.store(key, verdict);
            break;
          case SupervisedOutcome::Kind::Exhausted:
            exhausted = true;
            record.exhaustedAxis = outcome.exhaustedAxis;
            record.stage = outcome.stage;
            _candidatesTotal.fetch_add(verdict.candidates,
                                       std::memory_order_relaxed);
            break;
          case SupervisedOutcome::Kind::Crashed:
            // The worker died (or broke protocol) mid-job: a verdict
            // for this request only, carrying the fatal signal and the
            // partial progress read from the worker's status page.
            verdictOverride = "CrashedWorker";
            record.workerSignal = outcome.signal;
            record.stage = outcome.stage;
            record.crashes = outcome.crashes;
            _candidatesTotal.fetch_add(verdict.candidates,
                                       std::memory_order_relaxed);
            break;
          case SupervisedOutcome::Kind::Quarantined:
            // The ledger refused to dispatch a repeat crasher; no
            // worker was burned on it.
            verdictOverride = "Quarantined";
            record.workerSignal = outcome.signal;
            record.crashes = outcome.crashes;
            break;
        }
        // Crashed/Quarantined (like Exhausted) are never cached: they
        // describe this execution, not the test's semantics.
    } else {
        // Witness-less, short-circuiting check: Allowed verdicts stop at
        // the first witnessing candidate. From the engine's own worker
        // threads the pool is withheld (the checker would shard the
        // candidate space onto the same pool and deadlock waiting on
        // its futures); a direct caller gets intra-test sharding.
        ThreadPool *pool =
            ThreadPool::onWorkerThread() ? nullptr : _pool.get();
        std::optional<Governor> governor;
        if (!budget.unlimited())
            governor.emplace(budget, nullptr, &_liveCandidates);
        // Crash attribution for the in-thread path: if this check
        // takes the process down, the fatal-signal handler (when the
        // harness installed it) names the test it died in.
        crashContextSetJob(test.name.c_str(), params.name().c_str());
        CheckResult result;
        ShardRangeOutcome piece;
        if (resumable) {
            ShardRangeSpec spec;
            if (resume) {
                spec.shardBegin = resume->nextShard;
                spec.inShardOffset = resume->nextOffset;
                spec.issuedPlanSize = resume->planSize;
            }
            piece = checkShardRange(test, params, spec, pool,
                                    governor ? &*governor : nullptr);
            result = std::move(piece.result);
        } else {
            result = checkTest(test, params, /*stop_at_first=*/true,
                               /*capture_witness=*/false, pool,
                               governor ? &*governor : nullptr);
        }
        const std::uint64_t visited =
            governor ? governor->candidatesVisited() : result.candidates;
        if (governor)
            _liveCandidates.fetch_sub(visited, std::memory_order_relaxed);
        _candidatesTotal.fetch_add(visited, std::memory_order_relaxed);
        crashContextClearJob();

        if (resume) {
            // The fingerprint only catches accidents: anyone can
            // recompute it, so the cursor must also fit this plan.
            if (piece.cursorRefused) {
                throw ContinuationRefused(
                    "continuation cursor does not fit the re-derived "
                    "shard plan");
            }
            CheckResult merged = resume->prefix.toResult();
            mergePiece(merged, std::move(result));
            result = std::move(merged);
        }
        verdict = CachedVerdict::fromResult(result);
        if (!result.complete()) {
            exhausted = true;
            record.exhaustedAxis = result.exhaustedAxis;
            record.stage = governor ? governor->stageReached() : "";
            if (resumable && piece.planned) {
                // Programmatic tests carry no source text; their tokens
                // fingerprint the registry name instead (still unique
                // per test, and the HTTP path always has the source).
                ContinuationState next{0, kCheckShardTarget,
                                       piece.planSize, piece.nextShard,
                                       piece.nextOffset, verdict};
                next.fingerprint = continuationFingerprint(
                    test.sourceText.empty() ? test.name : test.sourceText,
                    record.variant, kModelRevision, next);
                record.continuation = serializeContinuation(next);
            } else if (resume) {
                // Trace construction outran this piece's whole budget:
                // no progress, no new cursor — hand the same token
                // back, loss-free.
                record.continuation = serializeContinuation(*resume);
            }
        } else if (!resume) {
            // Partial results never reach the cache (one would poison
            // every later lookup of this key), and neither do resumed
            // ones, whose prefix counts came from the client. A fresh
            // check that completed within its budget is identical to an
            // unbudgeted one and is cached normally.
            _cache.store(key, verdict);
        }
    }

    record.verdict =
        !verdictOverride.empty()
            ? verdictOverride
            : exhausted ? "ExhaustedBudget"
                        : (verdict.observable ? "Allowed" : "Forbidden");
    record.candidates = verdict.candidates;
    record.consistent = verdict.consistent;
    record.witnesses = verdict.witnesses;
    record.forbidding = verdict.forbiddingSummary();
    record.wallMicros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    _sink.append(record);
    return verdict;
}

Engine &
Engine::shared()
{
    // Leaked (like the registry and cat-model singletons) so worker
    // threads never race static destruction at exit.
    static Engine *engine = new Engine(EngineConfig::fromEnv());
    return *engine;
}

} // namespace rex::engine
