/**
 * @file
 * Tests for rex-cont-v1 enumeration continuations (engine/continuation,
 * engine/batch verdictRecord with resumable set, the /check resume protocol):
 * token round-trip and strict-parse rejection, the fingerprint covering
 * both job identity and payload, resumed-in-pieces runs byte-identical
 * to uninterrupted ones across every builtin x paper variant at
 * randomized split points, multi-piece chains identical between
 * REX_JOBS 1 and 4 engines, shard-range partition arithmetic, the
 * service-level 400/409 refusal + resume-loop protocol, and forged
 * tokens (fingerprint recomputed) that must neither reach the verdict
 * cache nor crash the server.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "base/hash.hh"
#include "base/strings.hh"
#include "engine/batch.hh"
#include "engine/continuation.hh"
#include "engine/pool.hh"
#include "litmus/registry.hh"
#include "server/json.hh"
#include "server/metrics.hh"
#include "server/service.hh"

namespace rex {
namespace {

/** An engine with no cache and no results file. */
engine::EngineConfig
plainConfig(unsigned jobs)
{
    engine::EngineConfig config;
    config.jobs = jobs;
    config.cacheEnabled = false;
    return config;
}

/** An engine with an in-memory verdict cache and no results file. */
engine::EngineConfig
cachedConfig(unsigned jobs)
{
    engine::EngineConfig config;
    config.jobs = jobs;
    return config;
}

/** A record's JSON with the schedule-dependent fields zeroed. */
std::string
stableJson(engine::JobRecord record)
{
    record.wallMicros = 0;
    record.cacheHit = false;
    return record.toJson();
}

/** Deterministic per-(test, variant) pseudo-random stream (FNV/LCG). */
std::uint64_t
mix(const std::string &name, const std::string &variant,
    std::uint64_t salt)
{
    std::uint64_t h = fnv1a(kFnvOffset ^ salt, name + ":" + variant);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
}

/** A fully-populated state for serialization tests. */
engine::ContinuationState
sampleState()
{
    engine::ContinuationState state;
    state.planTarget = 256;
    state.planSize = 17;
    state.nextShard = 3;
    state.nextOffset = 41;
    state.prefix.candidates = 812;
    state.prefix.consistent = 33;
    state.prefix.witnesses = 2;
    state.prefix.constrainedUnpredictable = 5;
    state.prefix.unknownSideEffects = 1;
    state.prefix.forbiddingAxiom = "external:unusual \"chars\" \n ok";
    state.prefix.forbiddingCycle = {0, 7, 4294967295u};
    state.fingerprint = engine::continuationFingerprint(
        "src", "base", engine::kModelRevision, state);
    return state;
}

/**
 * Drive @p engine through a chain of budgeted resumable pieces: the
 * first piece under @p firstBudget, every later piece under
 * @p laterBudget, resuming on the ExhaustedBudget token each time.
 * Every piece's record lands in @p pieces; the completed final record
 * is the return value.
 */
engine::JobRecord
runChain(engine::Engine &engine, const LitmusTest &test,
         const ModelParams &params, const engine::Budget &firstBudget,
         const engine::Budget &laterBudget,
         std::vector<engine::JobRecord> *pieces = nullptr)
{
    engine::JobRecord record =
        engine.verdictRecord(test, params, firstBudget, /*resumable=*/true);
    for (int hop = 0; hop < 10000; ++hop) {
        if (pieces)
            pieces->push_back(record);
        if (record.verdict != "ExhaustedBudget")
            return record;
        EXPECT_FALSE(record.continuation.empty())
            << test.name << "/" << params.name()
            << ": budget-tripped resumable record carries no token";
        engine::ContinuationState state;
        std::string error;
        EXPECT_TRUE(engine::parseContinuation(record.continuation,
                                              state, &error))
            << error;
        const std::string &source =
            test.sourceText.empty() ? test.name : test.sourceText;
        EXPECT_EQ(state.fingerprint,
                  engine::continuationFingerprint(
                      source, params.name(), engine::kModelRevision,
                      state))
            << test.name << ": token failed its own fingerprint";
        record = engine.verdictRecord(test, params, laterBudget,
                                      /*resumable=*/true, &state);
    }
    ADD_FAILURE() << test.name << "/" << params.name()
                  << ": chain did not converge";
    return record;
}

// ---------------------------------------------------------------------
// Token serialization
// ---------------------------------------------------------------------

TEST(ContinuationToken, RoundTripsEveryField)
{
    engine::ContinuationState state = sampleState();
    std::string token = engine::serializeContinuation(state);
    EXPECT_TRUE(startsWith(token, engine::kContinuationMagic));

    engine::ContinuationState back;
    std::string error;
    ASSERT_TRUE(engine::parseContinuation(token, back, &error)) << error;
    EXPECT_EQ(back.fingerprint, state.fingerprint);
    EXPECT_EQ(back.planTarget, state.planTarget);
    EXPECT_EQ(back.planSize, state.planSize);
    EXPECT_EQ(back.nextShard, state.nextShard);
    EXPECT_EQ(back.nextOffset, state.nextOffset);
    EXPECT_EQ(back.prefix.candidates, state.prefix.candidates);
    EXPECT_EQ(back.prefix.consistent, state.prefix.consistent);
    EXPECT_EQ(back.prefix.witnesses, state.prefix.witnesses);
    EXPECT_EQ(back.prefix.constrainedUnpredictable,
              state.prefix.constrainedUnpredictable);
    EXPECT_EQ(back.prefix.unknownSideEffects,
              state.prefix.unknownSideEffects);
    EXPECT_EQ(back.prefix.forbiddingAxiom, state.prefix.forbiddingAxiom);
    EXPECT_EQ(back.prefix.forbiddingCycle, state.prefix.forbiddingCycle);

    // Serialization is canonical: a round-trip re-serializes to the
    // same bytes.
    EXPECT_EQ(engine::serializeContinuation(back), token);
}

TEST(ContinuationToken, StrictParseRejectsMalformedTokens)
{
    engine::ContinuationState out;
    const std::string good =
        engine::serializeContinuation(sampleState());

    EXPECT_FALSE(engine::parseContinuation("", out));
    EXPECT_FALSE(engine::parseContinuation("garbage", out));
    EXPECT_FALSE(engine::parseContinuation("rex-cont-v2" +
                                               good.substr(11),
                                           out))
        << "an unknown version must be refused, not guessed at";
    EXPECT_FALSE(engine::parseContinuation(good + ":17", out))
        << "trailing fields must be refused";
    EXPECT_FALSE(
        engine::parseContinuation(good.substr(0, good.rfind(':')), out))
        << "truncated tokens must be refused";

    std::string letters = good;
    letters.replace(letters.find(":256:"), 5, ":25x:");
    EXPECT_FALSE(engine::parseContinuation(letters, out));
}

TEST(ContinuationToken, FingerprintCoversIdentityAndPayload)
{
    engine::ContinuationState state = sampleState();
    const std::uint64_t print = engine::continuationFingerprint(
        "src", "base", engine::kModelRevision, state);

    EXPECT_NE(print, engine::continuationFingerprint(
                         "src-edited", "base", engine::kModelRevision,
                         state))
        << "an edited test source must invalidate the token";
    EXPECT_NE(print, engine::continuationFingerprint(
                         "src", "SEA_RW", engine::kModelRevision, state))
        << "a different variant must invalidate the token";
    EXPECT_NE(print,
              engine::continuationFingerprint("src", "base", "rev-next",
                                              state))
        << "a model revision bump must invalidate the token";

    engine::ContinuationState tampered = state;
    tampered.nextOffset += 1;
    EXPECT_NE(print, engine::continuationFingerprint(
                         "src", "base", engine::kModelRevision,
                         tampered))
        << "a tampered cursor must invalidate the token";
    tampered = state;
    tampered.prefix.witnesses += 1;
    EXPECT_NE(print, engine::continuationFingerprint(
                         "src", "base", engine::kModelRevision,
                         tampered))
        << "tampered counts must invalidate the token";
}

// ---------------------------------------------------------------------
// Shard-range arithmetic
// ---------------------------------------------------------------------

TEST(ShardRange, PartitionedRangesSumToTheWholeCheck)
{
    engine::ThreadPool pool(2);
    const LitmusTest &test = TestRegistry::instance().get("IRIW+addrs");
    const ModelParams params = ModelParams::byName("base");

    ShardRangeSpec whole;
    ShardRangeOutcome full = checkShardRange(test, params, whole, &pool);
    ASSERT_TRUE(full.planned);
    ASSERT_TRUE(full.completed);
    ASSERT_GT(full.planSize, 1u);

    // Split the plan at every shard boundary: the two pieces' counts
    // must sum to the whole, piecewise.
    for (std::uint64_t cut = 1; cut < full.planSize; ++cut) {
        ShardRangeSpec lo, hi;
        lo.shardEnd = cut;
        hi.shardBegin = cut;
        ShardRangeOutcome a = checkShardRange(test, params, lo, &pool);
        ShardRangeOutcome b = checkShardRange(test, params, hi, &pool);
        ASSERT_TRUE(a.planned && b.planned);
        EXPECT_TRUE(a.completed && b.completed);
        EXPECT_EQ(a.planSize, full.planSize);
        EXPECT_EQ(a.result.candidates + b.result.candidates,
                  full.result.candidates)
            << "split at shard " << cut;
        EXPECT_EQ(a.result.consistent + b.result.consistent,
                  full.result.consistent);
        EXPECT_EQ(a.result.witnesses + b.result.witnesses,
                  full.result.witnesses);
    }
}

// ---------------------------------------------------------------------
// Resumed == uninterrupted
// ---------------------------------------------------------------------

TEST(Resume, EveryBuiltinEveryPaperVariantSplitsLosslessly)
{
    engine::Engine engine(plainConfig(4));
    const TestRegistry &registry = TestRegistry::instance();
    const std::vector<ModelParams> variants =
        ModelParams::paperVariants();

    for (const std::string &name : registry.names()) {
        const LitmusTest &test = registry.get(name);
        for (const ModelParams &params : variants) {
            engine::JobRecord whole = engine.verdictRecord(
                test, params, engine::Budget{}, /*resumable=*/true);
            ASSERT_NE(whole.verdict, "ExhaustedBudget")
                << name << ": unbudgeted run tripped a budget";
            if (whole.candidates < 2)
                continue;

            // One seeded-random split point per (test, variant): trip
            // the first piece on a candidate ceiling strictly inside
            // the enumeration, then let the resume run to completion.
            engine::Budget first;
            first.maxCandidates =
                1 + mix(name, params.name(), 0x5eed) %
                        (whole.candidates - 1);
            engine::JobRecord stitched = runChain(
                engine, test, params, first, engine::Budget{});
            EXPECT_EQ(stableJson(stitched), stableJson(whole))
                << name << "/" << params.name() << " split at "
                << first.maxCandidates;
        }
    }
}

TEST(Resume, ChainsConvergeIdenticallyAcrossJobs1AndJobs4)
{
    engine::Engine serial(plainConfig(1));
    engine::Engine parallel(plainConfig(4));
    const TestRegistry &registry = TestRegistry::instance();

    const char *kTests[] = {"IRIW+addrs", "SB+dmb.sy+eret",
                            "MP+dmb.sy+addr", "LB+addrs"};
    const char *kVariants[] = {"base", "SEA_RW"};
    for (const char *name : kTests) {
        const LitmusTest &test = registry.get(name);
        for (const char *variant : kVariants) {
            const ModelParams params = ModelParams::byName(variant);

            // Many tiny pieces: a 3-candidate ceiling forces a long
            // chain. On the serial engine the merged prefix at each
            // trip is deterministic, so the whole chain — every
            // intermediate record and token — must replay identically.
            engine::Budget tiny;
            tiny.maxCandidates = 3;
            std::vector<engine::JobRecord> runA;
            std::vector<engine::JobRecord> runB;
            engine::JobRecord a =
                runChain(serial, test, params, tiny, tiny, &runA);
            engine::JobRecord b =
                runChain(serial, test, params, tiny, tiny, &runB);
            ASSERT_EQ(runA.size(), runB.size())
                << name << "/" << variant;
            for (std::size_t i = 0; i < runA.size(); ++i) {
                EXPECT_EQ(stableJson(runA[i]), stableJson(runB[i]))
                    << name << "/" << variant << " piece " << i;
                EXPECT_EQ(runA[i].continuation, runB[i].continuation)
                    << name << "/" << variant << " token " << i;
            }
            // A Forbidden verdict needs the full enumeration, so the
            // 3-candidate ceiling must have tripped at least once; an
            // Allowed one may exit on an early witness in one piece.
            if (a.verdict == "Forbidden" && a.candidates > 3) {
                EXPECT_GT(runA.size(), 1u)
                    << name << "/" << variant << ": chain never split";
            }

            // The parallel engine cuts each pooled piece at the
            // ceiling, so it splits where the serial engine does: the
            // same tokens, and a byte-identical stitched final.
            std::vector<engine::JobRecord> runC;
            engine::JobRecord c =
                runChain(parallel, test, params, tiny, tiny, &runC);
            ASSERT_EQ(runA.size(), runC.size()) << name << "/" << variant;
            for (std::size_t i = 0; i < runA.size(); ++i) {
                EXPECT_EQ(runA[i].continuation, runC[i].continuation)
                    << name << "/" << variant << " jobs=4 token " << i;
            }
            EXPECT_EQ(stableJson(a), stableJson(b));
            EXPECT_EQ(stableJson(a), stableJson(c))
                << name << "/" << variant << ": jobs=4 final differs";

            // Tokens are portable across REX_JOBS: alternate engines
            // every hop and the chain still converges to the same
            // record.
            engine::JobRecord mixed =
                serial.verdictRecord(test, params, tiny, /*resumable=*/true);
            for (int hop = 0; mixed.verdict == "ExhaustedBudget";
                 ++hop) {
                ASSERT_LT(hop, 10000);
                engine::ContinuationState state;
                ASSERT_TRUE(engine::parseContinuation(
                    mixed.continuation, state));
                engine::Engine &next =
                    (hop % 2 == 0) ? parallel : serial;
                mixed = next.verdictRecord(test, params, tiny,
                                           /*resumable=*/true, &state);
            }
            EXPECT_EQ(stableJson(mixed), stableJson(a))
                << name << "/" << variant
                << ": cross-engine chain diverged";
        }
    }
}

TEST(Resume, SerialPieceTripsReportTheEnumerateStage)
{
    // A serial piece stops inside its enumeration and merges no
    // shards, so its trip reports the stage a serial whole-test trip
    // reports: "enumerate", never "merge".
    engine::Engine serial(plainConfig(1));
    const LitmusTest &test = TestRegistry::instance().get("IRIW+addrs");
    const ModelParams params = ModelParams::byName("base");
    engine::Budget tiny;
    tiny.maxCandidates = 3;

    const engine::JobRecord whole = serial.verdictRecord(test, params, tiny);
    ASSERT_EQ(whole.verdict, "ExhaustedBudget");
    EXPECT_EQ(whole.stage, "enumerate");

    engine::JobRecord piece =
        serial.verdictRecord(test, params, tiny, /*resumable=*/true);
    ASSERT_EQ(piece.verdict, "ExhaustedBudget");
    ASSERT_FALSE(piece.continuation.empty());
    EXPECT_NE(piece.toJson().find("\"stage\":\"enumerate\""),
              std::string::npos)
        << piece.toJson();

    engine::ContinuationState state;
    ASSERT_TRUE(engine::parseContinuation(piece.continuation, state));
    piece = serial.verdictRecord(test, params, tiny, /*resumable=*/true,
                                 &state);
    ASSERT_EQ(piece.verdict, "ExhaustedBudget");
    EXPECT_EQ(piece.stage, "enumerate") << "resumed piece";
}

TEST(Resume, PooledPiecesUnderACeilingAlwaysAdvanceTheCursor)
{
    // Every pooled piece must move its cursor forward, or a small
    // ceiling turns a chain into an unbounded run of empty hops.
    engine::Engine parallel(plainConfig(4));
    const LitmusTest &test = TestRegistry::instance().get("IRIW+addrs");
    const ModelParams params = ModelParams::byName("base");
    const engine::JobRecord whole =
        parallel.verdictRecord(test, params, engine::Budget{},
                               /*resumable=*/true);

    for (std::uint64_t ceiling : {1u, 2u, 7u}) {
        engine::Budget budget;
        budget.maxCandidates = ceiling;
        engine::JobRecord record =
            parallel.verdictRecord(test, params, budget, /*resumable=*/true);
        std::uint64_t lastShard = 0;
        std::uint64_t lastOffset = 0;
        std::uint64_t planSize = 0;
        std::uint64_t hops = 0;
        while (record.verdict == "ExhaustedBudget") {
            engine::ContinuationState state;
            ASSERT_TRUE(
                engine::parseContinuation(record.continuation, state));
            planSize = state.planSize;
            ASSERT_GT(planSize, 1u) << "needs a multi-shard plan";
            ASSERT_TRUE(state.nextShard > lastShard ||
                        (state.nextShard == lastShard &&
                         state.nextOffset > lastOffset))
                << "ceiling " << ceiling << ", hop " << hops
                << ": cursor stayed at shard " << state.nextShard
                << " offset " << state.nextOffset;
            lastShard = state.nextShard;
            lastOffset = state.nextOffset;
            ++hops;
            record = parallel.verdictRecord(test, params, budget,
                                            /*resumable=*/true, &state);
        }
        EXPECT_GT(hops, 0u) << "ceiling " << ceiling << " never tripped";
        EXPECT_EQ(stableJson(record), stableJson(whole))
            << "ceiling " << ceiling;
    }
}

// ---------------------------------------------------------------------
// The /check resume protocol (service level, no sockets)
// ---------------------------------------------------------------------

/** POST /check with @p body through a fresh service. */
server::HttpResponse
post(server::CheckService &service, const std::string &body)
{
    server::HttpRequest request;
    request.method = "POST";
    request.path = "/check";
    request.body = body;
    return service.handle(request);
}

std::string
quoted(const std::string &text)
{
    return "\"" + engine::jsonEscape(text) + "\"";
}

TEST(ResumeProtocol, RefusesMalformedAndMismatchedTokens)
{
    engine::Engine engine(plainConfig(2));
    server::Metrics metrics;
    server::CheckService service(engine, metrics);
    const std::string sourceA =
        TestRegistry::instance().sourceText("IRIW+addrs");
    const std::string sourceB =
        TestRegistry::instance().sourceText("LB+addrs");

    // A garbled token is a 400 before any engine work.
    server::HttpResponse bad = post(
        service, "{\"test\":" + quoted(sourceA) +
                     ",\"variants\":[\"base\"],"
                     "\"resume\":\"rex-cont-v1:nonsense\"}");
    EXPECT_EQ(bad.status, 400);
    EXPECT_EQ(metrics.continuationRefused.load(), 1u);

    // Trip a budget to get a genuine token...
    server::HttpResponse tripped = post(
        service, "{\"test\":" + quoted(sourceA) +
                     ",\"variants\":[\"base\"],\"resumable\":true,"
                     "\"max_candidates\":5}");
    ASSERT_EQ(tripped.status, 200);
    server::JsonValue line = server::parseJson(trim(tripped.body));
    const server::JsonValue *token = line.find("continuation");
    ASSERT_TRUE(token && token->isString() && !token->string.empty());
    EXPECT_GE(metrics.continuationsIssued.load(), 1u);

    // ...then replay it against a different test: refused with 409,
    // never silently recomputed.
    server::HttpResponse mismatched = post(
        service, "{\"test\":" + quoted(sourceB) +
                     ",\"variants\":[\"base\"],\"resume\":" +
                     quoted(token->string) + "}");
    EXPECT_EQ(mismatched.status, 409);
    EXPECT_EQ(metrics.continuationRefused.load(), 2u);

    // A resume must bind to exactly one variant.
    server::HttpResponse twoVariants = post(
        service, "{\"test\":" + quoted(sourceA) +
                     ",\"variants\":[\"base\",\"ExS\"],\"resume\":" +
                     quoted(token->string) + "}");
    EXPECT_EQ(twoVariants.status, 400);

    // The genuine token against the right job is accepted.
    server::HttpResponse resumed = post(
        service, "{\"test\":" + quoted(sourceA) +
                     ",\"variants\":[\"base\"],\"resumable\":true,"
                     "\"resume\":" + quoted(token->string) + "}");
    EXPECT_EQ(resumed.status, 200);
    EXPECT_GE(metrics.resumeAccepted.load(), 1u);
}

TEST(ResumeProtocol, StitchedLoopMatchesTheUnbudgetedAnswer)
{
    engine::Engine engine(plainConfig(2));
    server::Metrics metrics;
    server::CheckService service(engine, metrics);
    const std::string source =
        TestRegistry::instance().sourceText("IRIW+addrs");

    server::HttpResponse whole =
        post(service, "{\"test\":" + quoted(source) +
                          ",\"variants\":[\"base\"]}");
    ASSERT_EQ(whole.status, 200);

    // The client loop rex_client --resume-budget implements: re-POST
    // the continuation until the stream completes.
    std::string body = "{\"test\":" + quoted(source) +
                       ",\"variants\":[\"base\"],\"resumable\":true,"
                       "\"max_candidates\":3}";
    int hops = 0;
    std::string finalLine;
    for (;; ++hops) {
        ASSERT_LT(hops, 1000);
        server::HttpResponse piece = post(service, body);
        ASSERT_EQ(piece.status, 200);
        finalLine = trim(piece.body);
        server::JsonValue line = server::parseJson(finalLine);
        const server::JsonValue *verdict = line.find("verdict");
        ASSERT_TRUE(verdict && verdict->isString());
        if (verdict->string != "ExhaustedBudget")
            break;
        const server::JsonValue *token = line.find("continuation");
        ASSERT_TRUE(token && token->isString());
        body = "{\"test\":" + quoted(source) +
               ",\"variants\":[\"base\"],\"resumable\":true,"
               "\"max_candidates\":3,\"resume\":" +
               quoted(token->string) + "}";
    }
    EXPECT_GT(hops, 1);

    // Stabilise both final lines through the shared JSON parser and
    // renderer: only wall time may differ.
    auto stabilise = [](const std::string &text) {
        server::JsonValue v = server::parseJson(text);
        engine::JobRecord record;
        auto str = [&](const char *key) {
            const server::JsonValue *m = v.find(key);
            return m && m->isString() ? m->string : std::string();
        };
        auto num = [&](const char *key) -> std::uint64_t {
            const server::JsonValue *m = v.find(key);
            return m && m->isInt()
                       ? static_cast<std::uint64_t>(m->integer)
                       : 0;
        };
        record.kind = str("kind");
        record.test = str("test");
        record.variant = str("variant");
        record.verdict = str("verdict");
        record.candidates = num("candidates");
        record.consistent = num("consistent");
        record.witnesses = num("witnesses");
        record.forbidding = str("forbidding");
        record.exhaustedAxis = str("exhausted_axis");
        return record.toJson();
    };
    EXPECT_EQ(stabilise(finalLine), stabilise(trim(whole.body)));
    EXPECT_GE(metrics.resumeAccepted.load(),
              static_cast<std::uint64_t>(hops));
}

/** A genuine token for @p source under base, from a budget trip. */
engine::ContinuationState
trippedToken(server::CheckService &service, const std::string &source)
{
    server::HttpResponse tripped = post(
        service, "{\"test\":" + quoted(source) +
                     ",\"variants\":[\"base\"],\"resumable\":true,"
                     "\"max_candidates\":1}");
    EXPECT_EQ(tripped.status, 200);
    server::JsonValue line = server::parseJson(trim(tripped.body));
    const server::JsonValue *token = line.find("continuation");
    engine::ContinuationState state;
    EXPECT_TRUE(token && token->isString() &&
                engine::parseContinuation(token->string, state));
    return state;
}

/** POST a resume of @p state, its fingerprint recomputed the way any
 *  client can: the fingerprint is an unkeyed hash of public inputs. */
server::HttpResponse
postForged(server::CheckService &service, const std::string &source,
           engine::ContinuationState state)
{
    state.fingerprint = engine::continuationFingerprint(
        source, "base", engine::kModelRevision, state);
    return post(service,
                "{\"test\":" + quoted(source) +
                    ",\"variants\":[\"base\"],\"resume\":" +
                    quoted(engine::serializeContinuation(state)) + "}");
}

TEST(ResumeProtocol, ForgedTokenNeverPoisonsTheVerdictCache)
{
    // Both tests are Forbidden under base (MP+dmb.sy+ctrlsvc is Fig. 5).
    for (const char *name : {"MP+dmb.sy+ctrlsvc", "IRIW+addrs"}) {
        engine::Engine engine(cachedConfig(1));
        server::Metrics metrics;
        server::CheckService service(engine, metrics);
        const std::string source =
            TestRegistry::instance().sourceText(name);
        engine::ContinuationState state = trippedToken(service, source);
        ASSERT_GT(state.planSize, 1u) << name;

        // A forged witness count on a cursor inside the plan: the
        // answer is the client's own business, but it must not be
        // remembered as this test's verdict.
        engine::ContinuationState forged = state;
        forged.nextShard = state.planSize - 1;
        forged.nextOffset = 0;
        forged.prefix.witnesses = 1;
        EXPECT_EQ(postForged(service, source, forged).status, 200)
            << name;

        // A cursor past the plan's end is refused outright.
        forged.nextShard = state.planSize;
        EXPECT_EQ(postForged(service, source, forged).status, 409)
            << name;

        server::HttpResponse plain =
            post(service, "{\"test\":" + quoted(source) +
                              ",\"variants\":[\"base\"]}");
        ASSERT_EQ(plain.status, 200);
        server::JsonValue line = server::parseJson(trim(plain.body));
        const server::JsonValue *verdict = line.find("verdict");
        const server::JsonValue *hit = line.find("cache_hit");
        ASSERT_TRUE(verdict && verdict->isString() && hit && hit->isBool());
        EXPECT_EQ(verdict->string, "Forbidden") << name;
        EXPECT_FALSE(hit->boolean) << name;
    }
}

TEST(ResumeProtocol, RefusesTokensThatDoNotFitThePlan)
{
    engine::Engine engine(plainConfig(1));
    server::Metrics metrics;
    server::CheckService service(engine, metrics);
    const std::string source =
        TestRegistry::instance().sourceText("IRIW+addrs");
    const engine::ContinuationState state = trippedToken(service, source);
    ASSERT_GT(state.planSize, 1u);

    engine::ContinuationState forged = state;
    forged.nextOffset = kCheckShardTarget;
    EXPECT_EQ(postForged(service, source, forged).status, 409)
        << "an offset past its shard must be refused, not panic";

    forged = state;
    forged.nextShard = state.planSize + 5;
    EXPECT_EQ(postForged(service, source, forged).status, 409);

    forged = state;
    forged.planSize = state.planSize + 1;
    EXPECT_EQ(postForged(service, source, forged).status, 409)
        << "a plan size that differs from the re-derived plan";

    forged = state;
    forged.planTarget = kCheckShardTarget / 2;
    EXPECT_EQ(postForged(service, source, forged).status, 409)
        << "a plan target other than the engine's";

    EXPECT_EQ(metrics.continuationRefused.load(), 4u);
    EXPECT_EQ(metrics.resumeAccepted.load(), 0u);

    // The untouched token still resumes.
    EXPECT_EQ(postForged(service, source, state).status, 200);
}

} // namespace
} // namespace rex
