#include "engine/batch.hh"

#include <chrono>
#include <cstdlib>
#include <thread>

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
    if (const char *cap = std::getenv("REX_CACHE_MAX_BYTES")) {
        char *end = nullptr;
        unsigned long long parsed = std::strtoull(cap, &end, 10);
        if (end && *end == '\0')
            config.cacheMaxBytes = parsed;
        else
            warn(std::string("ignoring malformed REX_CACHE_MAX_BYTES='") +
                 cap + "'");
    }
    if (const char *results = std::getenv("REX_RESULTS"))
        config.resultsPath = results;
    config.workers = static_cast<unsigned>(
        envUnsigned("REX_WORKERS", config.workers));
    config.crashQuarantine = static_cast<unsigned>(
        envUnsigned("REX_CRASH_QUARANTINE", config.crashQuarantine));
    config.killGraceMs = envUnsigned("REX_KILL_GRACE_MS",
                                     config.killGraceMs);
    config.crashLedgerMax = envUnsigned("REX_CRASH_LEDGER_MAX",
                                        config.crashLedgerMax);
    config.cacheMemMaxEntries = static_cast<std::size_t>(
        envUnsigned("REX_CACHE_MEM_MAX", config.cacheMemMaxEntries));
    // jobs stays 0: resolved (REX_JOBS, then hardware concurrency) at
    // engine construction, so explicit EngineConfig{.jobs = n} wins.
    return config;
}

Engine::Engine(EngineConfig config)
    : _config(std::move(config)),
      _jobs(resolveJobs(_config.jobs)),
      _cache(_config.cacheEnabled, _config.cacheDir,
             _config.cacheMaxBytes, _config.cacheMemMaxEntries)
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
Engine::verdict(const LitmusTest &test, const ModelParams &params)
{
    JobRecord record;
    return verdictCommon(test, params, record).toResult();
}

JobRecord
Engine::verdictRecord(const LitmusTest &test, const ModelParams &params)
{
    JobRecord record;
    verdictCommon(test, params, record);
    return record;
}

JobRecord
Engine::verdictRecord(const LitmusTest &test, const ModelParams &params,
                      const Budget &budget)
{
    JobRecord record;
    verdictCommon(test, params, record, &budget);
    return record;
}

CheckResult
Engine::verdict(const LitmusTest &test, const ModelParams &params,
                const Budget &budget)
{
    JobRecord record;
    CheckResult result = verdictCommon(test, params, record,
                                       &budget).toResult();
    result.exhaustedAxis = record.exhaustedAxis;
    result.observable = result.observable && result.complete();
    return result;
}

CachedVerdict
Engine::verdictCommon(const LitmusTest &test, const ModelParams &params,
                      JobRecord &record, const Budget *budget)
{
    auto start = std::chrono::steady_clock::now();
    VerdictKey key =
        VerdictKey::make(test, params, _config.modelRevision);

    record.test = test.name;
    record.variant = params.name();

    std::optional<CachedVerdict> cached = _cache.lookup(key);
    CachedVerdict verdict;
    bool exhausted = false;
    std::string verdictOverride;
    if (cached) {
        // A cached verdict is a completed one, so it satisfies any
        // budget: budgeted requests are served from the cache too.
        verdict = *cached;
        record.cacheHit = true;
    } else if (_supervisor && !test.sourceText.empty()) {
        // Supervised mode: the check runs in a worker process, so a
        // crash in enumeration costs this job, not this process. Only
        // tests carrying their source text can ship across the process
        // boundary; programmatic tests fall through to in-thread.
        const SupervisedOutcome outcome =
            _supervisor->run(test.sourceText, test.name, params.name(),
                             key.hashHex(), budget);
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
        // threads the pool is withheld (checkTest would shard the
        // candidate space onto the same pool and deadlock waiting on
        // its futures); a direct caller gets intra-test sharding.
        ThreadPool *pool =
            ThreadPool::onWorkerThread() ? nullptr : _pool.get();
        // Crash attribution for the in-thread path: if this check
        // takes the process down, the fatal-signal handler (when the
        // harness installed it) names the test it died in.
        crashContextSetJob(test.name.c_str(), params.name().c_str());
        CheckResult result;
        if (budget && !budget->unlimited()) {
            Governor governor(*budget, nullptr, &_liveCandidates);
            result = checkTest(test, params,
                               /*stop_at_first=*/true,
                               /*capture_witness=*/false, pool, &governor);
            const std::uint64_t visited = governor.candidatesVisited();
            _liveCandidates.fetch_sub(visited, std::memory_order_relaxed);
            _candidatesTotal.fetch_add(visited, std::memory_order_relaxed);
            if (!result.complete()) {
                exhausted = true;
                record.exhaustedAxis = result.exhaustedAxis;
                record.stage = governor.stageReached();
            }
        } else {
            result = checkTest(test, params,
                               /*stop_at_first=*/true,
                               /*capture_witness=*/false, pool);
            _candidatesTotal.fetch_add(result.candidates,
                                       std::memory_order_relaxed);
        }
        crashContextClearJob();
        verdict = CachedVerdict::fromResult(result);
        // A partial result is not a verdict: caching it would poison
        // every future lookup of this key. A check that completed
        // within its budget is identical to an unbudgeted one and is
        // cached normally.
        if (!exhausted)
            _cache.store(key, verdict);
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

JobRecord
Engine::verdictRecordResumable(const LitmusTest &test,
                               const ModelParams &params,
                               const Budget &budget,
                               const ContinuationState *resume)
{
    auto start = std::chrono::steady_clock::now();
    JobRecord record;
    record.test = test.name;
    record.variant = params.name();
    VerdictKey key =
        VerdictKey::make(test, params, _config.modelRevision);

    auto finish = [&](const CachedVerdict &verdict) {
        record.candidates = verdict.candidates;
        record.consistent = verdict.consistent;
        record.witnesses = verdict.witnesses;
        record.forbidding = verdict.forbiddingSummary();
        record.wallMicros = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        _sink.append(record);
    };

    // A cached verdict is a completed one: it serves fresh and resumed
    // requests alike — the stitched outcome of any resume sequence
    // equals the uninterrupted run, which is exactly what the cache
    // holds.
    if (std::optional<CachedVerdict> cached = _cache.lookup(key)) {
        record.cacheHit = true;
        record.verdict = cached->observable ? "Allowed" : "Forbidden";
        finish(*cached);
        return record;
    }

    // Programmatic tests carry no source text; their continuations
    // fingerprint the registry name instead (still unique per test,
    // and the HTTP path always has the source).
    const std::string &fingerprintSource =
        test.sourceText.empty() ? test.name : test.sourceText;

    ShardRangeSpec spec;
    spec.planTarget = kCheckShardTarget;
    if (resume) {
        rexAssert(resume->planTarget == kCheckShardTarget,
                  "continuation plan target drift past its fingerprint");
        spec.shardBegin = resume->nextShard;
        spec.inShardOffset = resume->nextOffset;
    }

    std::optional<Governor> governor;
    if (!budget.unlimited())
        governor.emplace(budget, nullptr, &_liveCandidates);

    ThreadPool *pool =
        ThreadPool::onWorkerThread() ? nullptr : _pool.get();
    crashContextSetJob(test.name.c_str(), params.name().c_str());
    ShardRangeOutcome out =
        checkShardRange(test, params, spec, pool,
                        governor ? &*governor : nullptr);
    if (governor) {
        const std::uint64_t visited = governor->candidatesVisited();
        _liveCandidates.fetch_sub(visited, std::memory_order_relaxed);
        _candidatesTotal.fetch_add(visited, std::memory_order_relaxed);
    } else {
        _candidatesTotal.fetch_add(out.result.candidates,
                                   std::memory_order_relaxed);
    }
    crashContextClearJob();

    if (resume) {
        if (out.planned) {
            rexAssert(resume->planSize == out.planSize,
                      "continuation plan drift: fingerprint matched but "
                      "the re-derived shard plan differs");
        }
        // Prepend the token's already-merged enumeration-order prefix.
        out.result.candidates += resume->candidates;
        out.result.consistent += resume->consistent;
        out.result.witnesses += resume->witnesses;
        out.result.constrainedUnpredictable +=
            resume->constrainedUnpredictable;
        out.result.unknownSideEffects += resume->unknownSideEffects;
        if (!resume->forbiddingAxiom.empty()) {
            // The prefix is earlier in enumeration order: its first
            // satisfying rejection wins over anything this piece saw.
            out.result.forbiddingAxiom = resume->forbiddingAxiom;
            out.result.forbiddingCycle.assign(
                resume->forbiddingCycle.begin(),
                resume->forbiddingCycle.end());
        }
        out.result.observable = out.result.witnesses > 0;
    }

    const bool witnessed = out.result.witnesses > 0;
    const bool complete = witnessed || out.completed;
    CachedVerdict verdict = CachedVerdict::fromResult(out.result);
    if (complete) {
        // Indistinguishable from an uninterrupted check; cache it like
        // one so every later lookup (resumed or not) hits.
        out.result.exhaustedAxis.clear();
        verdict = CachedVerdict::fromResult(out.result);
        _cache.store(key, verdict);
        record.verdict = witnessed ? "Allowed" : "Forbidden";
        finish(verdict);
        return record;
    }

    record.verdict = "ExhaustedBudget";
    record.exhaustedAxis = out.result.exhaustedAxis;
    record.stage = governor ? governor->stageReached() : "";
    if (out.planned) {
        ContinuationState next;
        next.planTarget = spec.planTarget;
        next.planSize = out.planSize;
        next.nextShard = out.nextShard;
        next.nextOffset = out.nextOffset;
        next.candidates = out.result.candidates;
        next.consistent = out.result.consistent;
        next.witnesses = out.result.witnesses;
        next.constrainedUnpredictable =
            out.result.constrainedUnpredictable;
        next.unknownSideEffects = out.result.unknownSideEffects;
        next.forbiddingAxiom = out.result.forbiddingAxiom;
        next.forbiddingCycle.assign(out.result.forbiddingCycle.begin(),
                                    out.result.forbiddingCycle.end());
        next.fingerprint =
            continuationFingerprint(fingerprintSource, record.variant,
                                    _config.modelRevision, next);
        record.continuation = serializeContinuation(next);
    } else if (resume) {
        // Trace construction outran this piece's whole budget: no
        // progress, no new cursor — hand the same token back, loss-free.
        record.continuation = serializeContinuation(*resume);
    }
    finish(verdict);
    return record;
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
