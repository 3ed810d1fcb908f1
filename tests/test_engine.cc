/**
 * @file
 * Tests for the batch-execution engine: the work-stealing thread pool
 * (submission, exception propagation, graceful shutdown under load),
 * the content-addressed verdict cache (keying, roundtrips, on-disk
 * persistence, collision-safe verification), the JSONL results sink,
 * and — the engine's central contract — that parallel suite verdicts
 * and rendered tables are byte-identical to the serial path across the
 * whole built-in suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "axiomatic/checker.hh"
#include "engine/batch.hh"
#include "engine/cache.hh"
#include "engine/pool.hh"
#include "engine/results.hh"
#include "harness/runner.hh"
#include "litmus/registry.hh"

namespace rex {
namespace {

namespace fs = std::filesystem;

/** A fresh, empty scratch directory for one test. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
        ("rex_engine_" + name);
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

// ---------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsValue)
{
    engine::ThreadPool pool(2);
    std::future<int> future = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete)
{
    engine::ThreadPool pool(4);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 1; i <= 500; ++i)
        futures.push_back(pool.submit([&sum, i] { sum += i; }));
    for (std::future<void> &future : futures)
        future.get();
    EXPECT_EQ(sum.load(), 500 * 501 / 2);
    EXPECT_EQ(pool.submitted(), 500u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    engine::ThreadPool pool(2);
    std::future<int> boom = pool.submit(
        []() -> int { throw std::runtime_error("job failed"); });
    std::future<int> fine = pool.submit([] { return 1; });
    EXPECT_THROW(boom.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(fine.get(), 1);
    EXPECT_EQ(pool.submit([] { return 2; }).get(), 2);
}

TEST(ThreadPool, GracefulShutdownDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    {
        engine::ThreadPool pool(3);
        for (int i = 0; i < 200; ++i) {
            futures.push_back(pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
                ++ran;
            }));
        }
        // Destructor runs while most tasks are still queued.
    }
    EXPECT_EQ(ran.load(), 200);
    for (std::future<void> &future : futures) {
        EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    }
}

TEST(ThreadPool, SingleWorkerRunsEverything)
{
    engine::ThreadPool pool(1);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 20; ++i)
        futures.push_back(pool.submit([i] { return i; }));
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(futures[i].get(), i);
}

// ---------------------------------------------------------------------
// Engine map
// ---------------------------------------------------------------------

TEST(EngineMap, ResultsComeBackInSubmissionOrder)
{
    engine::Engine engine{plainConfig(4)};
    std::vector<std::size_t> out =
        engine.map(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(EngineMap, JobsOneRunsInlineOnCallingThread)
{
    engine::Engine engine{plainConfig(1)};
    EXPECT_EQ(engine.jobs(), 1u);
    std::thread::id self = std::this_thread::get_id();
    std::vector<bool> inline_run =
        engine.map(4, [self](std::size_t) {
            return std::this_thread::get_id() == self;
        });
    for (bool on_caller : inline_run)
        EXPECT_TRUE(on_caller);
}

TEST(EngineMap, ExceptionRethrownAtFailingIndex)
{
    engine::Engine engine{plainConfig(2)};
    EXPECT_THROW(engine.map(8,
                            [](std::size_t i) -> int {
                                if (i == 5)
                                    throw std::runtime_error("at 5");
                                return 0;
                            }),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Verdict cache
// ---------------------------------------------------------------------

TEST(VerdictCache, CanonicalTextDistinguishesTests)
{
    const TestRegistry &registry = TestRegistry::instance();
    std::string sb = engine::canonicalTestText(registry.get("SB+pos"));
    std::string mp = engine::canonicalTestText(registry.get("MP+pos"));
    EXPECT_NE(sb, mp);
    // Stable across calls.
    EXPECT_EQ(sb, engine::canonicalTestText(registry.get("SB+pos")));
}

TEST(VerdictCache, ParamsTextCoversEveryAxis)
{
    using engine::canonicalParamsText;
    std::string base = canonicalParamsText(ModelParams::base());
    EXPECT_NE(base, canonicalParamsText(ModelParams::exs()));
    EXPECT_NE(base, canonicalParamsText(ModelParams::seaReads()));
    EXPECT_NE(base, canonicalParamsText(ModelParams::seaWrites()));
    ModelParams no_ets2 = ModelParams::base();
    no_ets2.featEts2 = false;
    EXPECT_NE(base, canonicalParamsText(no_ets2));
    ModelParams no_gic = ModelParams::base();
    no_gic.gicExtension = false;
    EXPECT_NE(base, canonicalParamsText(no_gic));
}

TEST(VerdictCache, KeyDependsOnRevision)
{
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    engine::VerdictKey r1 =
        engine::VerdictKey::make(test, ModelParams::base(), "r1");
    engine::VerdictKey r2 =
        engine::VerdictKey::make(test, ModelParams::base(), "r2");
    EXPECT_NE(r1.hash, r2.hash);
    EXPECT_NE(r1.text, r2.text);
}

TEST(VerdictCache, StoreLookupRoundtrip)
{
    engine::VerdictCache cache(true, "");
    const LitmusTest &test = TestRegistry::instance().get("MP+dmb.sys");
    engine::VerdictKey key =
        engine::VerdictKey::make(test, ModelParams::base());

    EXPECT_FALSE(cache.lookup(key).has_value());
    engine::CachedVerdict verdict;
    verdict.observable = false;
    verdict.candidates = 77;
    verdict.forbiddingAxiom = "external";
    verdict.forbiddingCycle = {2, 5, 9};
    cache.store(key, verdict);

    std::optional<engine::CachedVerdict> back = cache.lookup(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->observable);
    EXPECT_EQ(back->candidates, 77u);
    EXPECT_EQ(back->forbiddingAxiom, "external");
    EXPECT_EQ(back->forbiddingCycle, (std::vector<EventId>{2, 5, 9}));
    EXPECT_EQ(back->forbiddingSummary(), "external:2->5->9");
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(VerdictCache, PersistsAcrossInstances)
{
    std::string dir = scratchDir("persist");
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    engine::VerdictKey key =
        engine::VerdictKey::make(test, ModelParams::base());

    engine::CachedVerdict verdict;
    verdict.observable = true;
    verdict.candidates = 123;
    verdict.consistent = 9;
    verdict.witnesses = 3;
    {
        engine::VerdictCache writer(true, dir);
        writer.store(key, verdict);
    }
    engine::VerdictCache reader(true, dir);
    std::optional<engine::CachedVerdict> back = reader.lookup(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->observable);
    EXPECT_EQ(back->candidates, 123u);
    EXPECT_EQ(back->consistent, 9u);
    EXPECT_EQ(back->witnesses, 3u);
    EXPECT_EQ(back->forbiddingSummary(), "");

    // A different key (other params) stays a miss.
    engine::VerdictKey other =
        engine::VerdictKey::make(test, ModelParams::seaBoth());
    EXPECT_FALSE(reader.lookup(other).has_value());
}

TEST(VerdictCache, CorruptDiskEntryIsAMiss)
{
    std::string dir = scratchDir("corrupt");
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    engine::VerdictKey key =
        engine::VerdictKey::make(test, ModelParams::base());
    {
        std::ofstream out(dir + "/" + key.hashHex() + ".rexv");
        out << "rex-verdict-v1\nobservable 1\ngarbage!\n";
    }
    engine::VerdictCache cache(true, dir);
    EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(VerdictCache, ByteCapEvictsOldestOnOverflow)
{
    std::string dir = scratchDir("cap_overflow");
    const TestRegistry &registry = TestRegistry::instance();

    // Three distinct keys (same test, different params). Measure one
    // entry's on-disk size first so the cap is two entries' worth.
    engine::VerdictKey keys[3] = {
        engine::VerdictKey::make(registry.get("SB+pos"),
                                 ModelParams::base()),
        engine::VerdictKey::make(registry.get("SB+pos"),
                                 ModelParams::exs()),
        engine::VerdictKey::make(registry.get("SB+pos"),
                                 ModelParams::seaBoth()),
    };
    std::uint64_t one_entry;
    {
        engine::VerdictCache probe(true, dir);
        probe.store(keys[0], engine::CachedVerdict{});
        one_entry = probe.diskBytes();
        ASSERT_GT(one_entry, 0u);
    }
    fs::remove_all(dir);
    fs::create_directories(dir);

    engine::VerdictCache cache(true, dir, 2 * one_entry + one_entry / 2);
    for (int i = 0; i < 3; ++i) {
        cache.store(keys[i], engine::CachedVerdict{});
        // Distinct mtimes, so oldest-first is deterministic.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_LE(cache.diskBytes(), cache.maxBytes());

    // The oldest entry's file is gone; the newest two survive.
    EXPECT_FALSE(fs::exists(dir + "/" + keys[0].hashHex() + ".rexv"));
    EXPECT_TRUE(fs::exists(dir + "/" + keys[1].hashHex() + ".rexv"));
    EXPECT_TRUE(fs::exists(dir + "/" + keys[2].hashHex() + ".rexv"));

    // A fresh cache over the same directory misses the evicted key and
    // still hits the surviving ones.
    engine::VerdictCache reader(true, dir);
    EXPECT_FALSE(reader.lookup(keys[0]).has_value());
    EXPECT_TRUE(reader.lookup(keys[1]).has_value());
    EXPECT_TRUE(reader.lookup(keys[2]).has_value());
}

TEST(VerdictCache, ByteCapTrimsPreexistingEntriesAtStartup)
{
    std::string dir = scratchDir("cap_startup");
    const TestRegistry &registry = TestRegistry::instance();
    engine::VerdictKey old_key =
        engine::VerdictKey::make(registry.get("MP+pos"),
                                 ModelParams::base());
    engine::VerdictKey new_key =
        engine::VerdictKey::make(registry.get("MP+pos"),
                                 ModelParams::exs());
    {
        engine::VerdictCache writer(true, dir);
        writer.store(old_key, engine::CachedVerdict{});
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        writer.store(new_key, engine::CachedVerdict{});
        ASSERT_EQ(writer.evictions(), 0u);
    }

    // Reopen with a cap that only fits one entry: the retroactive trim
    // deletes the older file during construction.
    std::uint64_t total;
    {
        engine::VerdictCache probe(true, dir);
        total = probe.diskBytes();
    }
    engine::VerdictCache capped(true, dir, total - 1);
    EXPECT_EQ(capped.evictions(), 1u);
    EXPECT_FALSE(fs::exists(dir + "/" + old_key.hashHex() + ".rexv"));
    EXPECT_TRUE(fs::exists(dir + "/" + new_key.hashHex() + ".rexv"));
    EXPECT_FALSE(capped.lookup(old_key).has_value());
    EXPECT_TRUE(capped.lookup(new_key).has_value());
}

TEST(VerdictCache, ZeroCapMeansUnlimited)
{
    std::string dir = scratchDir("cap_zero");
    engine::VerdictCache cache(true, dir, 0);
    const TestRegistry &registry = TestRegistry::instance();
    for (const char *name : {"SB+pos", "MP+pos", "LB+pos", "CoRR"}) {
        cache.store(engine::VerdictKey::make(registry.get(name),
                                             ModelParams::base()),
                    engine::CachedVerdict{});
    }
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_GT(cache.diskBytes(), 0u);
}

TEST(VerdictCache, MemCapEvictsTheLeastRecentlyTouchedEntry)
{
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    const engine::VerdictKey keys[3] = {
        engine::VerdictKey::make(test, ModelParams::base()),
        engine::VerdictKey::make(test, ModelParams::exs()),
        engine::VerdictKey::make(test, ModelParams::seaBoth()),
    };
    // In memory only, the evicted entry is gone; with a directory its
    // on-disk copy survives the eviction.
    for (const std::string &dir : {std::string(), scratchDir("mem_cap")}) {
        SCOPED_TRACE(dir.empty() ? "in-memory" : "with a cache dir");
        engine::VerdictCache cache(true, dir, 0, /*memMaxEntries=*/2);
        cache.store(keys[0], engine::CachedVerdict{});
        cache.store(keys[1], engine::CachedVerdict{});
        ASSERT_TRUE(cache.lookup(keys[0]).has_value());  // touch the first
        cache.store(keys[2], engine::CachedVerdict{});

        EXPECT_EQ(cache.memEvictions(), 1u);
        EXPECT_EQ(cache.entryCount(), 2u);
        EXPECT_TRUE(cache.lookup(keys[0]).has_value());
        EXPECT_TRUE(cache.lookup(keys[2]).has_value());
        EXPECT_EQ(cache.lookup(keys[1]).has_value(), !dir.empty());
    }
}

TEST(VerdictCache, DisabledCacheNeverHits)
{
    engine::VerdictCache cache(false, "");
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    engine::VerdictKey key =
        engine::VerdictKey::make(test, ModelParams::base());
    cache.store(key, engine::CachedVerdict{});
    EXPECT_FALSE(cache.lookup(key).has_value());
}

// ---------------------------------------------------------------------
// Engine verdicts
// ---------------------------------------------------------------------

TEST(EngineVerdict, AgreesWithDirectCheckerAcrossSeaSuite)
{
    engine::Engine engine{plainConfig(2)};
    for (const LitmusTest *test :
            TestRegistry::instance().suite("sea")) {
        for (const ModelParams &params : ModelParams::paperVariants()) {
            EXPECT_EQ(engine.verdict(*test, params).observable,
                      isAllowed(*test, params))
                << test->name << " under " << params.name();
        }
    }
}

TEST(EngineVerdict, SecondCallIsACacheHit)
{
    engine::EngineConfig config = plainConfig(1);
    config.cacheEnabled = true;
    engine::Engine engine{config};
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");

    CheckResult first = engine.verdict(test, ModelParams::base());
    EXPECT_EQ(engine.cache().hits(), 0u);
    CheckResult second = engine.verdict(test, ModelParams::base());
    EXPECT_EQ(engine.cache().hits(), 1u);
    EXPECT_EQ(first.observable, second.observable);
    EXPECT_EQ(first.candidates, second.candidates);
}

TEST(EngineVerdict, ForbiddenVerdictCarriesForbiddingSummary)
{
    engine::Engine engine{plainConfig(1)};
    const LitmusTest &test =
        TestRegistry::instance().get("MP+dmb.sy+addr");
    CheckResult result = engine.verdict(test, ModelParams::base());
    EXPECT_FALSE(result.observable);
    EXPECT_FALSE(result.forbiddingAxiom.empty());
}

// ---------------------------------------------------------------------
// Checker short-circuiting
// ---------------------------------------------------------------------

TEST(CheckerShortCircuit, AllowedVerdictStopsEarly)
{
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    CheckResult full = checkTest(test, ModelParams::base());
    CheckResult quick =
        checkTest(test, ModelParams::base(), true, false);
    EXPECT_TRUE(full.observable);
    EXPECT_TRUE(quick.observable);
    // The short-circuited check visits strictly fewer candidates.
    EXPECT_LT(quick.candidates, full.candidates);
    // And skips the witness copy.
    EXPECT_FALSE(quick.witness.has_value());
    EXPECT_TRUE(full.witness.has_value());
}

TEST(CheckerShortCircuit, ForbiddingExplanationRecorded)
{
    const LitmusTest &test =
        TestRegistry::instance().get("MP+dmb.sy+addr");
    CheckResult result =
        checkTest(test, ModelParams::base(), true, false);
    EXPECT_FALSE(result.observable);
    EXPECT_FALSE(result.forbiddingAxiom.empty());
    EXPECT_FALSE(result.forbiddingCycle.empty());
}

// ---------------------------------------------------------------------
// Results sink
// ---------------------------------------------------------------------

TEST(ResultsSink, EscapesJsonStrings)
{
    EXPECT_EQ(engine::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(engine::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ResultsSink, WritesOneWellFormedLinePerRecord)
{
    std::string dir = scratchDir("sink");
    std::string path = dir + "/out.jsonl";
    engine::ResultsSink sink;
    sink.open(path);
    ASSERT_TRUE(sink.enabled());

    engine::JobRecord record;
    record.test = "T\"quoted\"";
    record.variant = "base";
    record.verdict = "Allowed";
    record.candidates = 3;
    sink.append(record);
    record.kind = "hwsim";
    record.runs = 100;
    sink.append(record);
    EXPECT_EQ(sink.records(), 2u);

    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"test\":\"T\\\"quoted\\\"\""),
                  std::string::npos);
        EXPECT_NE(line.find("\"cache_hit\":false"), std::string::npos);
    }
    EXPECT_EQ(lines, 2u);
}

// ---------------------------------------------------------------------
// Determinism: parallel == serial, byte for byte
// ---------------------------------------------------------------------

TEST(EngineDeterminism, SuiteMatrixIdenticalAcrossJobCounts)
{
    const TestRegistry &registry = TestRegistry::instance();
    engine::Engine serial{plainConfig(1)};
    engine::Engine parallel{plainConfig(4)};
    for (const char *suite : {"core", "exceptions", "sea", "gic"}) {
        EXPECT_EQ(harness::suiteMatrix(registry.suite(suite), serial),
                  harness::suiteMatrix(registry.suite(suite), parallel))
            << "suite " << suite;
    }
}

TEST(EngineDeterminism, SuiteMatrixIdenticalWithWarmCache)
{
    const TestRegistry &registry = TestRegistry::instance();
    engine::EngineConfig config = plainConfig(4);
    config.cacheEnabled = true;
    config.cacheDir = scratchDir("warm");
    std::string cold, warm;
    {
        engine::Engine engine{config};
        cold = harness::suiteMatrix(registry.suite("sea"), engine);
    }
    {
        engine::Engine engine{config};
        warm = harness::suiteMatrix(registry.suite("sea"), engine);
        EXPECT_GT(engine.cache().hits(), 0u);
    }
    EXPECT_EQ(cold, warm);
}

TEST(EngineDeterminism, FigureReproductionIdenticalAcrossJobCounts)
{
    engine::Engine serial{plainConfig(1)};
    engine::Engine parallel{plainConfig(4)};
    harness::FigureOptions options;
    options.runsPerDevice = 200;
    options.catCrossCheck = true;
    for (const char *name : {"SB+dmb.sy+eret", "MP+dmb.sy+fault"}) {
        const LitmusTest &test = TestRegistry::instance().get(name);
        std::string a = harness::reproduceFigure(test, options, serial);
        std::string b =
            harness::reproduceFigure(test, options, parallel);
        EXPECT_EQ(a, b) << name;
        EXPECT_NE(a.find("cat-vs-native cross-check: agree"),
                  std::string::npos)
            << name;
    }
}

// ---------------------------------------------------------------------
// Reproducible hw-sim seeding
// ---------------------------------------------------------------------

TEST(FigureSeeding, SeedsAreStableAndDistinct)
{
    harness::FigureOptions options;
    std::uint64_t a = options.seedFor("SB+pos", "cortex-a53");
    EXPECT_EQ(a, options.seedFor("SB+pos", "cortex-a53"));
    EXPECT_NE(a, options.seedFor("SB+pos", "cortex-a73"));
    EXPECT_NE(a, options.seedFor("MP+pos", "cortex-a53"));
    EXPECT_NE(a, 0u);

    harness::FigureOptions reseeded;
    reseeded.seed = 43;
    EXPECT_NE(a, reseeded.seedFor("SB+pos", "cortex-a53"));
}

} // namespace
} // namespace rex
