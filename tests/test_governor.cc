/**
 * @file
 * Tests for the resource governor and the fault-injection harness: the
 * budget axes (candidate ceilings exact and schedule-independent,
 * deadlines, external cancellation), the ExhaustedBudget
 * path through the engine (partial statistics, never cached, budget
 * fields only on exhausted records), crash-safe cache entries
 * (checksummed, torn/corrupt entries evicted as misses), degraded-mode
 * behaviour at every fault point, and the client's retry backoff
 * arithmetic. This file runs under TSan in CI: the governor's whole
 * job is cross-thread cooperative cancellation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "axiomatic/checker.hh"
#include "engine/batch.hh"
#include "engine/cache.hh"
#include "engine/crashctx.hh"
#include "engine/faultinject.hh"
#include "engine/governor.hh"
#include "engine/pool.hh"
#include "engine/results.hh"
#include "engine/supervisor.hh"
#include "litmus/registry.hh"
#include "server/client.hh"

namespace rex {
namespace {

namespace fs = std::filesystem;

/** A fresh, empty scratch directory for one test. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
        ("rex_governor_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

engine::EngineConfig
plainConfig(unsigned jobs)
{
    engine::EngineConfig config;
    config.jobs = jobs;
    config.cacheEnabled = false;
    return config;
}

/** Disarm the process-wide injector when a test body exits. */
struct FaultGuard {
    ~FaultGuard() { engine::faultInjector().configure(""); }
};

/** The builtin test with the largest candidate space (scanned once). */
const LitmusTest &
bigTest()
{
    static const std::string name = [] {
        const TestRegistry &registry = TestRegistry::instance();
        std::string best;
        std::size_t most = 0;
        for (const std::string &candidate : registry.names()) {
            CheckResult full = checkTest(registry.get(candidate),
                                         ModelParams::base(), false,
                                         false);
            if (full.candidates > most) {
                most = full.candidates;
                best = candidate;
            }
        }
        return best;
    }();
    return TestRegistry::instance().get(name);
}

// ---------------------------------------------------------------------
// Governor: axes
// ---------------------------------------------------------------------

TEST(Governor, CandidateCeilingIsExact)
{
    engine::Budget budget;
    budget.maxCandidates = 3;
    engine::Governor governor(budget);
    EXPECT_TRUE(governor.admit());
    EXPECT_TRUE(governor.admit());
    EXPECT_TRUE(governor.admit());
    EXPECT_FALSE(governor.tripped());
    // The fourth candidate trips the ceiling and is NOT counted.
    EXPECT_FALSE(governor.admit());
    EXPECT_TRUE(governor.tripped());
    EXPECT_EQ(governor.trippedAxis(), engine::BudgetAxis::Candidates);
    EXPECT_EQ(governor.candidatesVisited(), 3u);
    // Once tripped, every later admit is rejected without counting.
    EXPECT_FALSE(governor.admit());
    EXPECT_EQ(governor.candidatesVisited(), 3u);
}

TEST(Governor, CeilingTripIsDeterministicAcrossJobCounts)
{
    const LitmusTest &test = bigTest();
    const ModelParams params = ModelParams::base();
    CheckResult full = checkTest(test, params, false, false);
    ASSERT_GT(full.candidates, 8u);
    const std::uint64_t ceiling = full.candidates / 2;

    engine::Budget budget;
    budget.maxCandidates = ceiling;

    // Serial.
    engine::Governor serial(budget);
    CheckResult one =
        checkTest(test, params, false, false, nullptr, &serial);
    EXPECT_EQ(one.exhaustedAxis, "candidates");
    EXPECT_FALSE(one.complete());
    EXPECT_EQ(one.candidates, ceiling);

    // Sharded over four workers: the shared-atomic admission admits
    // exactly min(total, ceiling) regardless of the schedule.
    engine::ThreadPool pool(4);
    engine::Governor sharded(budget);
    CheckResult four =
        checkTest(test, params, false, false, &pool, &sharded);
    EXPECT_EQ(four.exhaustedAxis, "candidates");
    EXPECT_EQ(four.candidates, ceiling);
    EXPECT_EQ(sharded.candidatesVisited(), ceiling);
}

TEST(Governor, CompletesUntouchedWhenBudgetIsRoomy)
{
    const LitmusTest &test = bigTest();
    const ModelParams params = ModelParams::base();
    CheckResult full = checkTest(test, params, false, false);

    engine::Budget budget;
    budget.maxCandidates = full.candidates + 10;
    engine::Governor governor(budget);
    CheckResult res =
        checkTest(test, params, false, false, nullptr, &governor);
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.exhaustedAxis, "");
    EXPECT_EQ(res.candidates, full.candidates);
    EXPECT_EQ(res.consistent, full.consistent);
    EXPECT_EQ(res.witnesses, full.witnesses);
    EXPECT_EQ(res.observable, full.observable);
}

TEST(Governor, DeadlineTripsAndReportsPartialProgress)
{
    const LitmusTest &test = bigTest();
    const ModelParams params = ModelParams::base();
    engine::Budget budget = engine::Budget::withDeadlineMs(20);
    engine::Governor governor(budget);
    // Re-check in a loop until the deadline lands: a single check may
    // complete inside 20ms, but the governor's clock keeps running.
    CheckResult res;
    while (!governor.tripped())
        res = checkTest(test, params, false, false, nullptr, &governor);
    EXPECT_EQ(governor.trippedAxis(), engine::BudgetAxis::Deadline);
    EXPECT_EQ(res.exhaustedAxis, "deadline");
    EXPECT_GE(governor.elapsedMicros(), 20000u);
    EXPECT_GT(governor.candidatesVisited(), 0u);
}

TEST(Governor, ExternalCancelStopsWithinFiftyMs)
{
    const LitmusTest &test = bigTest();
    const ModelParams params = ModelParams::base();
    engine::CancelToken external;
    engine::Governor governor(engine::Budget{}, &external);

    CheckResult res;
    std::thread worker([&] {
        while (!governor.tripped())
            res = checkTest(test, params, false, false, nullptr,
                            &governor);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto tripTime = std::chrono::steady_clock::now();
    external.trip(engine::BudgetAxis::Cancelled);
    worker.join();
    const auto latency =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - tripTime);
    EXPECT_LT(latency.count(), 50);
    EXPECT_EQ(res.exhaustedAxis, "cancelled");
    EXPECT_EQ(governor.trippedAxis(), engine::BudgetAxis::Cancelled);
}

TEST(Governor, StageIsRecorded)
{
    const LitmusTest &test = bigTest();
    engine::Budget budget;
    budget.maxCandidates = 1;
    engine::Governor governor(budget);
    checkTest(test, ModelParams::base(), false, false, nullptr,
              &governor);
    EXPECT_STREQ(governor.stageReached(), "enumerate");
}

// ---------------------------------------------------------------------
// Engine: the ExhaustedBudget path
// ---------------------------------------------------------------------

TEST(EngineBudget, ExhaustedRecordCarriesPartialStats)
{
    engine::Engine engine(plainConfig(1));
    engine::Budget budget;
    budget.maxCandidates = 2;
    engine::JobRecord record =
        engine.verdictRecord(bigTest(), ModelParams::base(), budget);
    EXPECT_EQ(record.verdict, "ExhaustedBudget");
    EXPECT_EQ(record.exhaustedAxis, "candidates");
    EXPECT_EQ(record.stage, "enumerate");
    EXPECT_EQ(record.candidates, 2u);
    const std::string json = record.toJson();
    EXPECT_NE(json.find("\"exhausted_axis\":\"candidates\""),
              std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"enumerate\""), std::string::npos);
}

TEST(EngineBudget, UnbudgetedRecordHasNoBudgetFields)
{
    engine::Engine engine(plainConfig(1));
    engine::JobRecord record =
        engine.verdictRecord(bigTest(), ModelParams::base());
    EXPECT_TRUE(record.exhaustedAxis.empty());
    const std::string json = record.toJson();
    EXPECT_EQ(json.find("exhausted_axis"), std::string::npos);
    EXPECT_EQ(json.find("\"stage\""), std::string::npos);
}

TEST(EngineBudget, ExhaustedVerdictsAreNeverCached)
{
    engine::EngineConfig config;
    config.jobs = 1;
    config.cacheEnabled = true;  // in-memory only: no cacheDir
    engine::Engine engine(config);

    engine::Budget tiny;
    tiny.maxCandidates = 1;
    engine::JobRecord partial =
        engine.verdictRecord(bigTest(), ModelParams::base(), tiny);
    EXPECT_EQ(partial.verdict, "ExhaustedBudget");
    EXPECT_EQ(engine.cache().entryCount(), 0u);

    // A complete check populates the cache as usual...
    engine::JobRecord complete =
        engine.verdictRecord(bigTest(), ModelParams::base());
    EXPECT_NE(complete.verdict, "ExhaustedBudget");
    EXPECT_EQ(engine.cache().entryCount(), 1u);

    // ...and a cached complete verdict satisfies any later budget:
    // same verdict, cache hit, no ExhaustedBudget even under a budget
    // the fresh check could never meet.
    engine::JobRecord served =
        engine.verdictRecord(bigTest(), ModelParams::base(), tiny);
    EXPECT_EQ(served.verdict, complete.verdict);
    EXPECT_EQ(served.candidates, complete.candidates);
    EXPECT_TRUE(served.cacheHit);
}

TEST(EngineBudget, CandidateCountersAreMonotonic)
{
    engine::Engine engine(plainConfig(1));
    engine::Budget budget;
    budget.maxCandidates = 4;
    engine.verdictRecord(bigTest(), ModelParams::base(), budget);
    EXPECT_EQ(engine.liveCandidates(), 0u);
    EXPECT_EQ(engine.candidatesEnumerated(), 4u);
    engine.verdictRecord(bigTest(), ModelParams::base(), budget);
    EXPECT_EQ(engine.candidatesEnumerated(), 8u);
}

TEST(EngineBudget, BudgetedVerdictMatchesRecord)
{
    engine::Engine engine(plainConfig(1));
    engine::Budget budget;
    budget.maxCandidates = 2;
    CheckResult res =
        engine.verdict(bigTest(), ModelParams::base(), budget);
    EXPECT_FALSE(res.complete());
    EXPECT_EQ(res.exhaustedAxis, "candidates");
    EXPECT_FALSE(res.observable);
}

// ---------------------------------------------------------------------
// Verdict cache: crash safety
// ---------------------------------------------------------------------

engine::VerdictKey
sampleKey()
{
    return engine::VerdictKey::make(bigTest(), ModelParams::base());
}

engine::CachedVerdict
sampleVerdict()
{
    engine::CachedVerdict value;
    value.observable = true;
    value.candidates = 123;
    value.consistent = 45;
    value.witnesses = 6;
    return value;
}

/** Path of the one on-disk entry under @p dir. */
fs::path
onlyEntry(const std::string &dir)
{
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".rexv")
            return entry.path();
    }
    return {};
}

TEST(CacheCrashSafety, FlippedByteIsDetectedEvictedAndMissed)
{
    const std::string dir = scratchDir("corrupt");
    {
        engine::VerdictCache cache(true, dir);
        cache.store(sampleKey(), sampleVerdict());
    }
    fs::path path = onlyEntry(dir);
    ASSERT_FALSE(path.empty());

    // Flip one byte in the payload.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 40u);
    bytes[bytes.size() - 5] ^= 0x20;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    engine::VerdictCache fresh(true, dir);
    EXPECT_FALSE(fresh.lookup(sampleKey()).has_value());
    EXPECT_EQ(fresh.corruptEvictions(), 1u);
    EXPECT_EQ(fresh.misses(), 1u);
    // The damaged entry is deleted, not retried forever.
    EXPECT_FALSE(fs::exists(path));
}

TEST(CacheCrashSafety, TruncatedEntryIsDetectedAndEvicted)
{
    const std::string dir = scratchDir("torn");
    {
        engine::VerdictCache cache(true, dir);
        cache.store(sampleKey(), sampleVerdict());
    }
    fs::path path = onlyEntry(dir);
    ASSERT_FALSE(path.empty());
    fs::resize_file(path, fs::file_size(path) / 2);

    engine::VerdictCache fresh(true, dir);
    EXPECT_FALSE(fresh.lookup(sampleKey()).has_value());
    EXPECT_EQ(fresh.corruptEvictions(), 1u);
    EXPECT_FALSE(fs::exists(path));
}

TEST(CacheCrashSafety, InjectedTornWriteIsRejectedOnLoad)
{
    FaultGuard guard;
    const std::string dir = scratchDir("fault_write");
    {
        engine::VerdictCache cache(true, dir);
        engine::faultInjector().configure("cache-write:1.0:7");
        cache.store(sampleKey(), sampleVerdict());
        EXPECT_GT(engine::faultInjector().injected(
                      engine::FaultPoint::CacheWrite),
                  0u);
        engine::faultInjector().configure("");  // resets the counters
        // The writer's own in-memory table still serves the verdict.
        EXPECT_TRUE(cache.lookup(sampleKey()).has_value());
    }

    // A later process sees the torn file: checksum rejects it.
    engine::VerdictCache fresh(true, dir);
    EXPECT_FALSE(fresh.lookup(sampleKey()).has_value());
    EXPECT_EQ(fresh.corruptEvictions(), 1u);
}

TEST(CacheCrashSafety, InjectedReadFaultIsAMissNotAnEviction)
{
    FaultGuard guard;
    const std::string dir = scratchDir("fault_read");
    {
        engine::VerdictCache cache(true, dir);
        cache.store(sampleKey(), sampleVerdict());
    }
    fs::path path = onlyEntry(dir);
    ASSERT_FALSE(path.empty());

    engine::VerdictCache fresh(true, dir);
    engine::faultInjector().configure("cache-read:1.0:7");
    EXPECT_FALSE(fresh.lookup(sampleKey()).has_value());
    engine::faultInjector().configure("");
    // A transient read failure must not delete the (healthy) entry.
    EXPECT_TRUE(fs::exists(path));
    EXPECT_EQ(fresh.corruptEvictions(), 0u);
    std::optional<engine::CachedVerdict> value =
        fresh.lookup(sampleKey());
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->candidates, 123u);
}

// ---------------------------------------------------------------------
// Degraded modes: sink, pool
// ---------------------------------------------------------------------

TEST(FaultDegradation, SinkWriteFaultDropsAndCounts)
{
    FaultGuard guard;
    const std::string path =
        scratchDir("sink") + "/results.jsonl";
    engine::ResultsSink sink;
    sink.open(path);
    engine::JobRecord record;
    record.test = "t";
    record.variant = "base";
    record.verdict = "Allowed";

    engine::faultInjector().configure("sink-write:1.0:3");
    sink.append(record);
    engine::faultInjector().configure("");
    sink.append(record);
    sink.close();

    EXPECT_EQ(sink.droppedRecords(), 1u);
    EXPECT_EQ(sink.records(), 1u);
    std::ifstream in(path);
    std::string line, last;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        if (!line.empty()) {
            ++lines;
            last = line;
        }
    }
    // The dropped record never reached the file, and the survivor is a
    // whole line — no torn output.
    EXPECT_EQ(lines, 1u);
    EXPECT_NE(last.find("\"verdict\":\"Allowed\""), std::string::npos);
}

TEST(FaultDegradation, PoolSpawnFaultRunsTasksInline)
{
    FaultGuard guard;
    engine::faultInjector().configure("pool-spawn:1.0:5");
    engine::ThreadPool pool(2);
    std::atomic<int> sum{0};
    std::vector<std::future<int>> futures;
    for (int i = 1; i <= 50; ++i)
        futures.push_back(pool.submit([&sum, i] { sum += i; return i; }));
    for (int i = 1; i <= 50; ++i)
        EXPECT_EQ(futures[i - 1].get(), i);
    EXPECT_EQ(sum.load(), 50 * 51 / 2);
    EXPECT_GT(
        engine::faultInjector().injected(engine::FaultPoint::PoolSpawn),
        0u);
}

TEST(FaultDegradation, BudgetedCheckSurvivesPoolSpawnFault)
{
    FaultGuard guard;
    const LitmusTest &test = bigTest();
    const ModelParams params = ModelParams::base();
    CheckResult full = checkTest(test, params, false, false);

    engine::faultInjector().configure("pool-spawn:0.5:11");
    engine::ThreadPool pool(4);
    CheckResult degraded =
        checkTest(test, params, false, false, &pool);
    engine::faultInjector().configure("");
    EXPECT_EQ(degraded.candidates, full.candidates);
    EXPECT_EQ(degraded.consistent, full.consistent);
    EXPECT_EQ(degraded.observable, full.observable);
}

// ---------------------------------------------------------------------
// The fault injector itself
// ---------------------------------------------------------------------

TEST(FaultInjector, UnarmedNeverFails)
{
    FaultGuard guard;
    engine::faultInjector().configure("");
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(engine::faultInjector().shouldFail(
            engine::FaultPoint::SinkWrite));
    }
}

TEST(FaultInjector, DecisionSequenceIsDeterministic)
{
    FaultGuard guard;
    auto sequence = [] {
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i) {
            out.push_back(engine::faultInjector().shouldFail(
                engine::FaultPoint::SockSend));
        }
        return out;
    };
    engine::faultInjector().configure("sock-send:0.5:42");
    std::vector<bool> first = sequence();
    engine::faultInjector().configure("sock-send:0.5:42");
    std::vector<bool> second = sequence();
    EXPECT_EQ(first, second);
    // ~0.5 probability: both outcomes appear in 64 draws.
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
    // A different seed yields a different sequence.
    engine::faultInjector().configure("sock-send:0.5:43");
    EXPECT_NE(sequence(), first);
}

TEST(FaultInjector, ProbabilityOneAlwaysProbabilityZeroNever)
{
    FaultGuard guard;
    engine::faultInjector().configure("cache-read:1.0:1");
    for (int i = 0; i < 32; ++i) {
        EXPECT_TRUE(engine::faultInjector().shouldFail(
            engine::FaultPoint::CacheRead));
    }
    EXPECT_EQ(
        engine::faultInjector().checked(engine::FaultPoint::CacheRead),
        32u);
    EXPECT_EQ(
        engine::faultInjector().injected(engine::FaultPoint::CacheRead),
        32u);
    engine::faultInjector().configure("cache-read:0.0:1");
    for (int i = 0; i < 32; ++i) {
        EXPECT_FALSE(engine::faultInjector().shouldFail(
            engine::FaultPoint::CacheRead));
    }
}

TEST(FaultInjector, MalformedClausesAreSkipped)
{
    FaultGuard guard;
    engine::faultInjector().configure(
        "nonsense:1.0:1,cache-write:not-a-number:2,sock-send:1.0:3");
    EXPECT_FALSE(
        engine::faultInjector().armed(engine::FaultPoint::CacheWrite));
    EXPECT_TRUE(
        engine::faultInjector().armed(engine::FaultPoint::SockSend));
}

// ---------------------------------------------------------------------
// Client retry backoff arithmetic
// ---------------------------------------------------------------------

TEST(RetryBackoff, GrowsExponentiallyWithinJitterBounds)
{
    server::RetryPolicy policy;
    policy.initialDelayMs = 100;
    policy.maxDelayMs = 2000;
    // Attempt k's nominal delay is 100 * 2^(k-1), +-25% jitter.
    for (int attempt = 1; attempt <= 4; ++attempt) {
        const int nominal = 100 << (attempt - 1);
        const int delay = server::retryDelayMs(policy, attempt, 0);
        EXPECT_GE(delay, nominal * 3 / 4);
        EXPECT_LE(delay, nominal * 5 / 4);
    }
}

TEST(RetryBackoff, CapsAtMaxDelay)
{
    server::RetryPolicy policy;
    policy.initialDelayMs = 100;
    policy.maxDelayMs = 500;
    const int delay = server::retryDelayMs(policy, 10, 0);
    EXPECT_LE(delay, 500 * 5 / 4);
    EXPECT_GE(delay, 500 * 3 / 4);
}

TEST(RetryBackoff, RetryAfterIsAFloorNeverShortened)
{
    server::RetryPolicy policy;
    policy.initialDelayMs = 100;
    EXPECT_GE(server::retryDelayMs(policy, 1, 10), 10000);
    // A Retry-After below the computed backoff changes nothing.
    const int base = server::retryDelayMs(policy, 5, 0);
    EXPECT_EQ(server::retryDelayMs(policy, 5, 0), base);
    EXPECT_GE(server::retryDelayMs(policy, 5, 1), base);
}

TEST(RetryBackoff, JitterIsDeterministicPerSeed)
{
    server::RetryPolicy a;
    a.jitterSeed = 7;
    server::RetryPolicy b;
    b.jitterSeed = 7;
    for (int attempt = 1; attempt <= 6; ++attempt) {
        EXPECT_EQ(server::retryDelayMs(a, attempt, 0),
                  server::retryDelayMs(b, attempt, 0));
    }
}

// ---------------------------------------------------------------------
// Supervised workers: crash containment, quarantine, hard deadlines
// ---------------------------------------------------------------------

/** A small builtin carrying its source text (any registry test does —
 *  the registry parses them all from text). */
const LitmusTest &
smallTest()
{
    const LitmusTest &test = TestRegistry::instance().names().empty()
        ? bigTest()
        : TestRegistry::instance().get(
              TestRegistry::instance().names().front());
    EXPECT_FALSE(test.sourceText.empty());
    return test;
}

engine::SupervisorConfig
supervisorConfig(unsigned workers)
{
    engine::SupervisorConfig config;
    config.workers = workers;
    config.respawnBackoffMs = 5;  // keep crash-loop tests fast
    config.respawnBackoffMaxMs = 50;
    return config;
}

TEST(Supervisor, WorkerVerdictMatchesInThreadCheck)
{
    const LitmusTest &test = smallTest();
    const ModelParams params = ModelParams::base();
    const CheckResult direct = checkTest(test, params, true, false);

    engine::Supervisor supervisor(supervisorConfig(2));
    const engine::SupervisedOutcome outcome = supervisor.run(
        test.sourceText, test.name, params.name(), "key-parity", nullptr);
    ASSERT_EQ(outcome.kind, engine::SupervisedOutcome::Kind::Ok);
    EXPECT_EQ(outcome.verdict.observable, direct.observable);
    EXPECT_EQ(outcome.verdict.candidates, direct.candidates);
    EXPECT_EQ(outcome.verdict.consistent, direct.consistent);
    EXPECT_EQ(outcome.verdict.witnesses, direct.witnesses);
    EXPECT_EQ(supervisor.crashes(), 0u);
    EXPECT_EQ(supervisor.liveWorkers(), 2u);
}

TEST(Supervisor, InjectedCrashIsContainedAndTheSlotRespawns)
{
    FaultGuard guard;
    const LitmusTest &test = smallTest();
    engine::Supervisor supervisor(supervisorConfig(1));

    engine::faultInjector().configure("worker-crash:1.0:7");
    const engine::SupervisedOutcome crashed = supervisor.run(
        test.sourceText, test.name, "base", "key-crash", nullptr);
    engine::faultInjector().configure("");

    ASSERT_EQ(crashed.kind, engine::SupervisedOutcome::Kind::Crashed);
    EXPECT_EQ(crashed.signal, "SIGSEGV");
    EXPECT_EQ(crashed.crashes, 1u);
    EXPECT_EQ(supervisor.crashes(), 1u);

    // The supervisor (this process) survived; the slot respawns and
    // the next job of the same key succeeds.
    const engine::SupervisedOutcome retried = supervisor.run(
        test.sourceText, test.name, "base", "key-crash", nullptr);
    ASSERT_EQ(retried.kind, engine::SupervisedOutcome::Kind::Ok);
    EXPECT_GE(supervisor.respawns(), 1u);
    const auto bySignal = supervisor.crashesBySignal();
    ASSERT_EQ(bySignal.size(), 1u);
    EXPECT_EQ(bySignal[0].first, "SIGSEGV");
    EXPECT_EQ(bySignal[0].second, 1u);
}

TEST(Supervisor, QuarantineTripsAfterThresholdCrashes)
{
    FaultGuard guard;
    const LitmusTest &test = smallTest();
    engine::SupervisorConfig config = supervisorConfig(1);
    config.crashQuarantine = 2;
    engine::Supervisor supervisor(config);

    engine::faultInjector().configure("worker-crash:1.0:7");
    for (int crash = 0; crash < 2; ++crash) {
        const engine::SupervisedOutcome outcome = supervisor.run(
            test.sourceText, test.name, "base", "key-quar", nullptr);
        ASSERT_EQ(outcome.kind,
                  engine::SupervisedOutcome::Kind::Crashed);
    }
    // Third time: refused without dispatch — still refused after the
    // injector is disarmed, because quarantine is about the ledger,
    // not the fault.
    engine::faultInjector().configure("");
    const engine::SupervisedOutcome refused = supervisor.run(
        test.sourceText, test.name, "base", "key-quar", nullptr);
    ASSERT_EQ(refused.kind,
              engine::SupervisedOutcome::Kind::Quarantined);
    EXPECT_EQ(refused.signal, "SIGSEGV");
    EXPECT_EQ(refused.crashes, 2u);
    EXPECT_EQ(supervisor.quarantinedServed(), 1u);
    EXPECT_EQ(supervisor.quarantinedKeys(), 1u);

    // Other keys are unaffected.
    const engine::SupervisedOutcome other = supervisor.run(
        test.sourceText, test.name, "base", "key-other", nullptr);
    EXPECT_EQ(other.kind, engine::SupervisedOutcome::Kind::Ok);
}

TEST(Supervisor, HangingWorkerIsKilledAtTheHardDeadline)
{
    FaultGuard guard;
    const LitmusTest &test = smallTest();
    engine::SupervisorConfig config = supervisorConfig(1);
    config.killGraceMs = 300;
    engine::Supervisor supervisor(config);

    engine::Budget budget;
    budget.deadlineMicros = 200 * 1000;

    engine::faultInjector().configure("worker-hang:1.0:7");
    const auto start = std::chrono::steady_clock::now();
    const engine::SupervisedOutcome outcome = supervisor.run(
        test.sourceText, test.name, "base", "key-hang", &budget);
    engine::faultInjector().configure("");
    const auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();

    ASSERT_EQ(outcome.kind, engine::SupervisedOutcome::Kind::Crashed);
    EXPECT_EQ(outcome.signal, "SIGKILL");
    // Killed no earlier than the cooperative deadline, and well within
    // deadline + grace (plus slack for a loaded CI box).
    EXPECT_GE(elapsedMs, 200);
    EXPECT_LT(elapsedMs, 5000);
    // A hang SIGKILL charges the ledger like any other crash.
    EXPECT_EQ(outcome.crashes, 1u);
}

TEST(Supervisor, EngineEmitsCrashedWorkerRecordAndRecovers)
{
    FaultGuard guard;
    const LitmusTest &test = smallTest();
    engine::EngineConfig config = plainConfig(1);
    config.workers = 1;
    engine::Engine engine(config);

    engine::faultInjector().configure("worker-crash:1.0:7");
    engine::JobRecord crashed =
        engine.verdictRecord(test, ModelParams::base());
    engine::faultInjector().configure("");

    EXPECT_EQ(crashed.verdict, "CrashedWorker");
    EXPECT_EQ(crashed.workerSignal, "SIGSEGV");
    EXPECT_EQ(crashed.crashes, 1u);
    const std::string json = crashed.toJson();
    EXPECT_NE(json.find("\"verdict\":\"CrashedWorker\""),
              std::string::npos);
    EXPECT_NE(json.find("\"signal\":\"SIGSEGV\""), std::string::npos);
    EXPECT_NE(json.find("\"crashes\":1"), std::string::npos);

    // Crashed results are never cached: the retry really re-checks,
    // in a respawned worker, and succeeds.
    engine::JobRecord retried =
        engine.verdictRecord(test, ModelParams::base());
    EXPECT_FALSE(retried.cacheHit);
    EXPECT_TRUE(retried.verdict == "Allowed" ||
                retried.verdict == "Forbidden");
    EXPECT_TRUE(retried.workerSignal.empty());
    EXPECT_EQ(retried.toJson().find("\"signal\""), std::string::npos);
}

TEST(Supervisor, SupervisedVerdictsMatchInThreadVerdictsAcrossRegistry)
{
    // A slice of the registry through both paths; records must agree
    // field-for-field (JSONL modulo wall time and cache flag).
    engine::EngineConfig inThread = plainConfig(1);
    engine::Engine plain(inThread);
    engine::EngineConfig isolated = plainConfig(1);
    isolated.workers = 2;
    engine::Engine supervised(isolated);

    const TestRegistry &registry = TestRegistry::instance();
    std::vector<std::string> names = registry.names();
    names.resize(std::min<std::size_t>(names.size(), 10));
    for (const std::string &name : names) {
        const LitmusTest &test = registry.get(name);
        engine::JobRecord a =
            plain.verdictRecord(test, ModelParams::base());
        engine::JobRecord b =
            supervised.verdictRecord(test, ModelParams::base());
        a.wallMicros = b.wallMicros = 0;
        EXPECT_EQ(a.toJson(), b.toJson()) << name;
    }
}

// ---------------------------------------------------------------------
// Crash attribution (the fatal-signal handler)
// ---------------------------------------------------------------------

TEST(CrashContext, HandlerNamesTestVariantAndStageOnFatalSignal)
{
    int pipeFds[2];
    ASSERT_EQ(::pipe(pipeFds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: route stderr into the pipe, set up attribution as the
        // engine would, and die the way a checker bug would.
        ::close(pipeFds[0]);
        ::dup2(pipeFds[1], STDERR_FILENO);
        engine::installCrashAttributionHandler();
        engine::crashContextSetJob("MP+dmb+svc", "base");
        engine::crashContextSetStage("enumerate");
        std::raise(SIGSEGV);
        ::_exit(0);  // unreachable
    }
    ::close(pipeFds[1]);
    std::string stderrText;
    char buffer[512];
    ssize_t got = 0;
    while ((got = ::read(pipeFds[0], buffer, sizeof(buffer))) > 0)
        stderrText.append(buffer, static_cast<std::size_t>(got));
    ::close(pipeFds[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
    EXPECT_NE(stderrText.find("rex: fatal SIGSEGV"), std::string::npos)
        << stderrText;
    EXPECT_NE(stderrText.find("test 'MP+dmb+svc'"), std::string::npos);
    EXPECT_NE(stderrText.find("variant 'base'"), std::string::npos);
    EXPECT_NE(stderrText.find("stage 'enumerate'"), std::string::npos);
}

// ---------------------------------------------------------------------
// Verdict cache: concurrent multi-process writers
// ---------------------------------------------------------------------

TEST(CacheMultiProcess, ConcurrentWritersProduceNoTornEntries)
{
    const std::string dir = scratchDir("hammer");
    constexpr int kKeys = 48;
    constexpr int kRounds = 40;

    // Hand-built keys with deterministic per-key content, so whichever
    // process wins any write race publishes identical bytes.
    auto keyFor = [](int i) {
        engine::VerdictKey key;
        key.text = "hammer-key-" + std::to_string(i) + "\n";
        key.hash = 0x1000 + static_cast<std::uint64_t>(i);
        return key;
    };
    auto verdictFor = [](int i) {
        engine::CachedVerdict value;
        value.observable = (i % 2) == 0;
        value.candidates = static_cast<std::uint64_t>(100 + i);
        value.consistent = static_cast<std::uint64_t>(i);
        return value;
    };

    // Two child processes hammer the same directory — with a byte cap
    // low enough that both run the eviction trim continuously, the
    // worst case for cross-process index races.
    pid_t children[2];
    for (pid_t &child : children) {
        child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            engine::VerdictCache mine(true, dir, 16 * 1024);
            for (int round = 0; round < kRounds; ++round) {
                for (int i = 0; i < kKeys; ++i)
                    mine.store(keyFor(i), verdictFor(i));
            }
            ::_exit(0);
        }
    }
    for (pid_t child : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0);
    }

    // A fresh cache over the survivors: every entry present must load
    // clean (correct checksum AND correct content); evicted ones are
    // plain misses. Zero corruption is the contract.
    engine::VerdictCache fresh(true, dir);
    int present = 0;
    for (int i = 0; i < kKeys; ++i) {
        std::optional<engine::CachedVerdict> loaded =
            fresh.lookup(keyFor(i));
        if (!loaded)
            continue;
        ++present;
        EXPECT_EQ(loaded->observable, (i % 2) == 0);
        EXPECT_EQ(loaded->candidates,
                  static_cast<std::uint64_t>(100 + i));
    }
    EXPECT_EQ(fresh.corruptEvictions(), 0u);
    EXPECT_GT(present, 0);
    // No temp files leaked past the final rename.
    int leftovers = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().filename().string().find(".tmp") !=
                std::string::npos) {
            ++leftovers;
        }
    }
    EXPECT_EQ(leftovers, 0);
}

} // namespace
} // namespace rex
