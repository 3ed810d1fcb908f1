/**
 * @file
 * Tests for the rexd litmus-checking service: the request JSON parser,
 * request validation, route dispatch through CheckService, and — the
 * acceptance bar — a live RexServer on an ephemeral localhost port
 * driven by concurrent Client instances: byte-identical verdicts vs the
 * direct checker, cache-hit rates across rounds via /metrics, 503
 * backpressure under a pinned queue, and graceful drain with a complete
 * JSONL results file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/strings.hh"
#include "engine/batch.hh"
#include "engine/cache.hh"
#include "engine/continuation.hh"
#include "engine/faultinject.hh"
#include "gen/hammer.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "server/client.hh"
#include "server/json.hh"
#include "server/server.hh"
#include "server/service.hh"

namespace rex {
namespace {

namespace fs = std::filesystem;

std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
        ("rex_server_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** An engine with no cache, no results file, and a tiny pool. */
engine::EngineConfig
plainConfig(unsigned jobs = 2)
{
    engine::EngineConfig config;
    config.jobs = jobs;
    config.cacheEnabled = false;
    return config;
}

/** Extract the value of a single-sample Prometheus metric line. */
double
metricValue(const std::string &exposition, const std::string &name)
{
    for (const std::string &line : split(exposition, '\n')) {
        if (startsWith(line, name + " ")) {
            return std::strtod(line.c_str() + name.size() + 1, nullptr);
        }
    }
    return -1.0;
}

/** Connect a blocking TCP socket to 127.0.0.1:@p port or die. */
int
connectTo(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

/** Read from @p fd until the peer closes; every byte received. */
std::string
recvToEof(int fd)
{
    std::string reply;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        reply.append(chunk, static_cast<std::size_t>(n));
    return reply;
}

/** Zero the schedule-dependent fields of one JSONL verdict line. */
std::string
stabilise(const std::string &line)
{
    server::JsonValue v = server::parseJson(line);
    auto str = [&](const char *key) {
        const server::JsonValue *m = v.find(key);
        return m && m->isString() ? m->string : std::string();
    };
    auto num = [&](const char *key) -> std::uint64_t {
        const server::JsonValue *m = v.find(key);
        return m && m->isInt() ? static_cast<std::uint64_t>(m->integer)
                               : 0;
    };
    engine::JobRecord record;
    record.kind = str("kind");
    record.test = str("test");
    record.variant = str("variant");
    record.verdict = str("verdict");
    record.candidates = num("candidates");
    record.consistent = num("consistent");
    record.witnesses = num("witnesses");
    record.runs = num("runs");
    record.observed = num("observed");
    record.forbidding = str("forbidding");
    record.exhaustedAxis = str("exhausted_axis");
    record.stage = str("stage");
    record.workerSignal = str("signal");
    record.crashes = num("crashes");
    return record.toJson();
}

/**
 * An adversarial litmus test: twelve independent loads over four
 * locations with two writers each blow the candidate space up to
 * ~8.5M, several seconds of full enumeration — the shape of request a
 * deadline budget exists to bound. The condition is unsatisfiable, so
 * stop_at_first never short-circuits the enumeration.
 */
const char *kAdversarialTest =
    "AArch64 BigRF\n"
    "{ x=0; y=0; z=0; w=0;\n"
    "  0:X1=x; 0:X3=y; 0:X5=z; 0:X7=w;\n"
    "  1:X1=x; 1:X3=y; 1:X5=z; 1:X7=w;\n"
    "  2:X1=x; 2:X3=y; 2:X5=z; 2:X7=w;\n"
    "  3:X1=x; 3:X3=y; 3:X5=z; 3:X7=w; }\n"
    " P0          | P1          | P2          | P3          ;\n"
    " MOV W0,#1   | MOV W0,#2   | LDR W0,[X1] | LDR W0,[X7] ;\n"
    " STR W0,[X1] | STR W0,[X1] | LDR W2,[X3] | LDR W2,[X5] ;\n"
    " MOV W2,#1   | MOV W2,#2   | LDR W4,[X5] | LDR W4,[X3] ;\n"
    " STR W2,[X3] | STR W2,[X3] | LDR W6,[X7] | LDR W6,[X1] ;\n"
    " MOV W4,#1   | MOV W4,#2   | LDR W8,[X1] | LDR W8,[X3] ;\n"
    " STR W4,[X5] | STR W4,[X5] | LDR W9,[X3] | LDR W9,[X5] ;\n"
    " MOV W6,#1   | MOV W6,#2   |             |             ;\n"
    " STR W6,[X7] | STR W6,[X7] |             |             ;\n"
    "exists (2:X0=7 /\\ 2:X2=7)\n";

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers)
{
    server::JsonValue v = server::parseJson(
        "{\"a\": [1, 2.5, \"x\", true, null], \"b\": {\"c\": -7}}");
    ASSERT_TRUE(v.isObject());
    const server::JsonValue *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->array.size(), 5u);
    EXPECT_EQ(a->array[0].integer, 1);
    EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
    EXPECT_EQ(a->array[2].string, "x");
    EXPECT_TRUE(a->array[3].boolean);
    EXPECT_TRUE(a->array[4].isNull());
    const server::JsonValue *b = v.find("b");
    ASSERT_TRUE(b && b->isObject());
    EXPECT_EQ(b->find("c")->integer, -7);
}

TEST(Json, DecodesStringEscapes)
{
    server::JsonValue v = server::parseJson(
        "\"a\\n\\t\\\"b\\\\c\\u0041\\u00e9\"");
    EXPECT_EQ(v.string, "a\n\t\"b\\cA\xc3\xa9");
}

TEST(Json, DecodesSurrogatePairs)
{
    // U+1F600 as a surrogate pair.
    server::JsonValue v = server::parseJson("\"\\ud83d\\ude00\"");
    EXPECT_EQ(v.string, "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad : {
             "", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "nul",
             "\"unterminated", "\"bad\\q\"", "\"\\u12\"", "01", "1.",
             "{\"a\":1} trailing", "[1 2]", "{\"a\":1,}", "+1",
             "\"\\ud83d\"",  // lone high surrogate
         }) {
        EXPECT_THROW(server::parseJson(bad), FatalError) << bad;
    }
}

TEST(Json, RejectsExcessiveNesting)
{
    std::string deep(server::kMaxJsonDepth + 1, '[');
    deep += std::string(server::kMaxJsonDepth + 1, ']');
    EXPECT_THROW(server::parseJson(deep), FatalError);
    std::string ok(server::kMaxJsonDepth, '[');
    ok += std::string(server::kMaxJsonDepth, ']');
    EXPECT_NO_THROW(server::parseJson(ok));
}

TEST(Json, PreservesInt64Range)
{
    EXPECT_EQ(server::parseJson("9223372036854775807").integer,
              INT64_MAX);
    EXPECT_EQ(server::parseJson("-9223372036854775808").integer,
              INT64_MIN);
    // Out of int64 range falls back to double, not an error.
    EXPECT_TRUE(server::parseJson("18446744073709551616").kind ==
                server::JsonValue::Kind::Double);
}

// ---------------------------------------------------------------------
// Request validation
// ---------------------------------------------------------------------

TEST(CheckRequest, ParsesVariantListAndPaperShorthand)
{
    server::CheckRequest r = server::CheckRequest::fromJson(
        "{\"test\": \"name: t\", \"variants\": [\"base\", \"SEA_R\"]}");
    EXPECT_EQ(r.testText, "name: t");
    EXPECT_EQ(r.variants,
              (std::vector<std::string>{"base", "SEA_R"}));

    server::CheckRequest paper = server::CheckRequest::fromJson(
        "{\"test\": \"x\", \"variants\": \"paper\"}");
    EXPECT_EQ(paper.variants.size(),
              ModelParams::paperVariants().size());

    server::CheckRequest defaulted =
        server::CheckRequest::fromJson("{\"test\": \"x\"}");
    EXPECT_EQ(defaulted.variants,
              (std::vector<std::string>{"base"}));
}

TEST(CheckRequest, RejectsBadBodies)
{
    for (const char *bad : {
             "not json",
             "[]",                              // not an object
             "{}",                              // no test
             "{\"test\": 7}",                   // test not a string
             "{\"test\": \"\"}",                // empty test
             "{\"test\": \"x\", \"variants\": 3}",
             "{\"test\": \"x\", \"variants\": [3]}",
             "{\"test\": \"x\", \"variants\": [\"nope\"]}",
             "{\"test\": \"x\", \"variants\": \"everything\"}",
             "{\"test\": \"x\", \"bogus\": 1}", // unknown member
             "{\"test\": \"x\", \"sleep_ms\": \"soon\"}",
         }) {
        EXPECT_THROW(server::CheckRequest::fromJson(bad), FatalError)
            << bad;
    }

    // Variant fan-out is bounded.
    std::string many = "{\"test\": \"x\", \"variants\": [";
    for (int i = 0; i < 33; ++i)
        many += std::string(i ? "," : "") + "\"base\"";
    many += "]}";
    EXPECT_THROW(server::CheckRequest::fromJson(many), FatalError);
}

TEST(CheckRequest, ParsesAndValidatesBudgets)
{
    server::CheckRequest r = server::CheckRequest::fromJson(
        "{\"test\": \"x\", \"deadline_ms\": 250, "
        "\"max_candidates\": 9}");
    EXPECT_EQ(r.deadlineMs, 250);
    EXPECT_EQ(r.maxCandidates, 9);

    server::CheckRequest none =
        server::CheckRequest::fromJson("{\"test\": \"x\"}");
    EXPECT_EQ(none.deadlineMs, 0);
    EXPECT_EQ(none.maxCandidates, 0);

    for (const char *bad : {
             "{\"test\": \"x\", \"deadline_ms\": \"soon\"}",
             "{\"test\": \"x\", \"deadline_ms\": -1}",
             "{\"test\": \"x\", \"max_candidates\": 1.5}",
             "{\"test\": \"x\", \"max_candidates\": -3}",
         }) {
        EXPECT_THROW(server::CheckRequest::fromJson(bad), FatalError)
            << bad;
    }
}

// ---------------------------------------------------------------------
// Route dispatch (no sockets)
// ---------------------------------------------------------------------

struct DirectService {
    engine::Engine engine{plainConfig()};
    server::Metrics metrics;
    server::CheckService service{engine, metrics};

    server::HttpResponse
    request(const std::string &method, const std::string &path,
            const std::string &body = "")
    {
        server::HttpRequest req;
        req.method = method;
        req.path = path;
        req.body = body;
        return service.handle(req);
    }
};

TEST(CheckService, RoutesAndErrors)
{
    DirectService d;
    EXPECT_EQ(d.request("GET", "/healthz").status, 200);
    EXPECT_EQ(d.request("GET", "/metrics").status, 200);
    EXPECT_EQ(d.request("GET", "/nope").status, 404);
    // No /shard route: an old coordinator gets a plain unknown route,
    // never a half-served shard.
    EXPECT_EQ(d.request("POST", "/shard", "{}").status, 404);
    EXPECT_EQ(d.request("GET", "/check").status, 405);
    EXPECT_EQ(d.request("POST", "/healthz").status, 405);
    EXPECT_EQ(d.request("PUT", "/check").status, 405);
    EXPECT_EQ(d.request("POST", "/check", "not json").status, 400);
    EXPECT_EQ(d.request("POST", "/check", "{\"test\":\"junk\"}").status,
              400);
    EXPECT_EQ(d.metrics.responses400.load(), 2u);
}

TEST(CheckService, ChecksABuiltinTestAcrossVariants)
{
    DirectService d;
    const std::string &text =
        TestRegistry::instance().sourceText("SB+pos");
    server::HttpResponse response = d.request(
        "POST", "/check",
        server::checkRequestJson(text, {"base", "SEA_RW"}));
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.contentType, "application/x-ndjson");

    std::vector<std::string> lines;
    for (const std::string &line : split(response.body, '\n')) {
        if (!trim(line).empty())
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u);
    server::JsonValue first = server::parseJson(lines[0]);
    EXPECT_EQ(first.find("test")->string, "SB+pos");
    EXPECT_EQ(first.find("variant")->string, "base");
    EXPECT_EQ(first.find("verdict")->string, "Allowed");
    EXPECT_EQ(server::parseJson(lines[1]).find("variant")->string,
              "SEA_RW");
    EXPECT_EQ(d.metrics.verdictsAllowed.load() +
                  d.metrics.verdictsForbidden.load(),
              2u);
}

TEST(CheckService, AcceptsHerdFormatInput)
{
    DirectService d;
    std::string herd =
        "AArch64 MP+wire\n"
        "{ x=0; y=0; 0:X1=x; 0:X3=y; 1:X1=y; 1:X3=x; }\n"
        " P0          | P1          ;\n"
        " MOV W0,#1   | LDR W0,[X1] ;\n"
        " STR W0,[X1] | LDR W2,[X3] ;\n"
        " MOV W2,#1   |             ;\n"
        " STR W2,[X3] |             ;\n"
        "exists (1:X0=1 /\\ 1:X2=0)\n";
    server::HttpResponse response = d.request(
        "POST", "/check", server::checkRequestJson(herd, {"base"}));
    ASSERT_EQ(response.status, 200);
    server::JsonValue record =
        server::parseJson(trim(response.body));
    EXPECT_EQ(record.find("test")->string, "MP+wire");
    EXPECT_EQ(record.find("verdict")->string, "Allowed");
}

// ---------------------------------------------------------------------
// Resumable HTTP parser
// ---------------------------------------------------------------------

using ParseResult = server::HttpParser::Result;

TEST(HttpParser, ByteAtATimeDeliveryFramesOneRequest)
{
    const std::string wire =
        "POST /check?x=1 HTTP/1.1\r\nHost: t\r\n"
        "Content-Length: 5\r\n\r\nhello";
    server::HttpParser parser;
    server::HttpRequest request;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        parser.feed(wire.data() + i, 1);
        ASSERT_EQ(parser.next(request), ParseResult::NeedMore)
            << "byte " << i;
    }
    parser.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_EQ(parser.next(request), ParseResult::Ready);
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.path, "/check");
    EXPECT_EQ(request.query, "x=1");
    EXPECT_EQ(request.body, "hello");
    EXPECT_EQ(request.headers.at("host"), "t");
    EXPECT_TRUE(request.keepAlive);
    EXPECT_TRUE(parser.idle());
}

TEST(HttpParser, PipelinedRequestsShareOneReadBuffer)
{
    const std::string wire =
        "POST /check HTTP/1.1\r\nContent-Length: 2\r\n\r\nab"
        "GET /healthz HTTP/1.1\r\n\r\n"
        "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
    server::HttpParser parser;
    // Deliver everything but the last request's final byte in one
    // feed(): the first two must frame, the third must wait.
    parser.feed(wire.data(), wire.size() - 1);
    server::HttpRequest request;
    ASSERT_EQ(parser.next(request), ParseResult::Ready);
    EXPECT_EQ(request.body, "ab");
    ASSERT_EQ(parser.next(request), ParseResult::Ready);
    EXPECT_EQ(request.path, "/healthz");
    EXPECT_TRUE(request.keepAlive);
    ASSERT_EQ(parser.next(request), ParseResult::NeedMore);
    EXPECT_FALSE(parser.idle());
    parser.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_EQ(parser.next(request), ParseResult::Ready);
    EXPECT_EQ(request.path, "/metrics");
    EXPECT_FALSE(request.keepAlive);  // explicit close
    EXPECT_TRUE(parser.idle());
}

TEST(HttpParser, BareLfAndHttp10FramingAreHandled)
{
    // Hand-rolled peers send bare-LF line endings; HTTP/1.0 peers
    // default to one-shot connections unless they opt in.
    server::HttpParser parser;
    const std::string wire =
        "GET /healthz HTTP/1.0\nHost: t\n\n"
        "GET /healthz HTTP/1.0\nConnection: keep-alive\n\n";
    parser.feed(wire.data(), wire.size());
    server::HttpRequest request;
    ASSERT_EQ(parser.next(request), ParseResult::Ready);
    EXPECT_EQ(request.path, "/healthz");
    EXPECT_FALSE(request.keepAlive);  // 1.0 default
    ASSERT_EQ(parser.next(request), ParseResult::Ready);
    EXPECT_TRUE(request.keepAlive);   // 1.0 opt-in
}

TEST(HttpParser, OversizedHeaderBlockGets431AndSticks)
{
    server::HttpLimits limits;
    limits.maxHeaderBytes = 128;
    server::HttpParser parser(limits);
    std::string wire = "GET / HTTP/1.1\r\nX-Pad: ";
    wire += std::string(256, 'a');  // never terminated
    parser.feed(wire.data(), wire.size());
    server::HttpRequest request;
    ASSERT_EQ(parser.next(request), ParseResult::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
    // Errors are sticky: more bytes cannot revive the stream.
    parser.feed("\r\n\r\n", 4);
    EXPECT_EQ(parser.next(request), ParseResult::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParser, OversizedBodyIsRefusedBeforeBuffering)
{
    server::HttpLimits limits;
    limits.maxBodyBytes = 64;
    server::HttpParser parser(limits);
    // The declared Content-Length alone must trigger the 413 — no
    // body byte has been delivered, and none is ever buffered.
    const std::string head =
        "POST /check HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
    parser.feed(head.data(), head.size());
    server::HttpRequest request;
    ASSERT_EQ(parser.next(request), ParseResult::Error);
    EXPECT_EQ(parser.errorStatus(), 413);
    EXPECT_LT(parser.bufferedBytes(), limits.maxBodyBytes);
}

TEST(HttpParser, ProtocolErrorsGetTheRightStatus)
{
    struct Case { const char *wire; int status; };
    const Case cases[] = {
        {"POST /check HTTP/1.1\r\n"
         "Transfer-Encoding: chunked\r\n\r\n", 501},
        {"POST /check HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400},
        {"POST /check HTTP/1.1\r\n\r\n", 411},
        {"NOT-HTTP\r\n\r\n", 400},
    };
    for (const Case &c : cases) {
        server::HttpParser parser;
        parser.feed(c.wire, std::strlen(c.wire));
        server::HttpRequest request;
        ASSERT_EQ(parser.next(request), ParseResult::Error) << c.wire;
        EXPECT_EQ(parser.errorStatus(), c.status) << c.wire;
    }
}

TEST(HttpParser, RandomChunkingNeverChangesTheFrames)
{
    // Fuzz-style determinism check: one byte stream of several
    // pipelined requests must parse to the same frames no matter how
    // the transport slices it.
    std::string wire;
    std::vector<std::string> bodies;
    for (int i = 0; i < 8; ++i) {
        std::string body = "body-" + std::to_string(i) +
            std::string(static_cast<std::size_t>(i * 7), 'x');
        bodies.push_back(body);
        wire += "POST /check HTTP/1.1\r\nHost: fuzz\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
    }

    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 32; ++round) {
        server::HttpParser parser;
        std::vector<std::string> got;
        std::size_t off = 0;
        while (off < wire.size()) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            std::size_t n = 1 + (rng >> 33) % 37;
            n = std::min(n, wire.size() - off);
            parser.feed(wire.data() + off, n);
            off += n;
            server::HttpRequest request;
            while (parser.next(request) == ParseResult::Ready)
                got.push_back(request.body);
            ASSERT_NE(parser.result(), ParseResult::Error);
        }
        ASSERT_EQ(got, bodies) << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Cacheability: canonical keys, ETags, conditional requests
// ---------------------------------------------------------------------

TEST(Cacheability, EquivalentBodiesModuloKeyOrderShareAnETag)
{
    // Same request content, different JSON key order and whitespace.
    const std::string a =
        "{\"test\":\"T\",\"variants\":[\"base\"],\"deadline_ms\":5000}";
    const std::string b =
        "{ \"deadline_ms\" : 5000 ,\n  \"variants\" : [ \"base\" ],\n"
        "  \"test\" : \"T\" }";
    std::string keyA = server::CheckRequest::fromJson(a).canonicalKey();
    std::string keyB = server::CheckRequest::fromJson(b).canonicalKey();
    EXPECT_EQ(keyA, keyB);
    EXPECT_EQ(server::verdictETag(keyA, engine::kModelRevision),
              server::verdictETag(keyB, engine::kModelRevision));

    // sleep_ms is a test hook that cannot change verdicts — excluded.
    std::string keyHook =
        server::CheckRequest::fromJson(
                   "{\"test\":\"T\",\"variants\":[\"base\"],"
                   "\"deadline_ms\":5000,\"sleep_ms\":50}")
            .canonicalKey();
    EXPECT_EQ(keyA, keyHook);

    // Anything that can change the answer must change the key.
    EXPECT_NE(keyA, server::CheckRequest::fromJson(
                        "{\"test\":\"U\",\"variants\":[\"base\"],"
                        "\"deadline_ms\":5000}")
                        .canonicalKey());
    EXPECT_NE(keyA, server::CheckRequest::fromJson(
                        "{\"test\":\"T\",\"variants\":[\"SEA_RW\"],"
                        "\"deadline_ms\":5000}")
                        .canonicalKey());
    EXPECT_NE(keyA, server::CheckRequest::fromJson(
                        "{\"test\":\"T\",\"variants\":[\"base\"],"
                        "\"deadline_ms\":6000}")
                        .canonicalKey());
}

TEST(Cacheability, RevisionBumpChangesTheETag)
{
    const std::string key =
        server::CheckRequest::fromJson(
            "{\"test\":\"T\",\"variants\":[\"base\"]}")
            .canonicalKey();
    EXPECT_EQ(server::verdictETag(key, "r1"),
              server::verdictETag(key, "r1"));
    EXPECT_NE(server::verdictETag(key, "r1"),
              server::verdictETag(key, "r2"));

    // Shape: a quoted 16-hex-digit strong validator.
    std::string etag = server::verdictETag(key, engine::kModelRevision);
    ASSERT_EQ(etag.size(), 18u);
    EXPECT_EQ(etag.front(), '"');
    EXPECT_EQ(etag.back(), '"');
    for (std::size_t i = 1; i + 1 < etag.size(); ++i)
        EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(etag[i])));
}

TEST(Cacheability, DeterministicChecksAdvertisePublicCaching)
{
    DirectService d;
    server::HttpResponse r = d.request(
        "POST", "/check",
        server::checkRequestJson(
            TestRegistry::instance().sourceText("SB+pos"), {"base"}));
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.extraHeaders["Cache-Control"], "public, max-age=86400");
    EXPECT_FALSE(r.extraHeaders["ETag"].empty());
}

TEST(Cacheability, BudgetTrippedChecksAreNoStore)
{
    DirectService d;
    server::HttpResponse r = d.request(
        "POST", "/check",
        server::checkRequestJson(
            TestRegistry::instance().sourceText("MP+dmb.sys"), {"base"},
            0, 0, /*maxCandidates=*/1));
    ASSERT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("ExhaustedBudget"), std::string::npos);
    EXPECT_EQ(r.extraHeaders["Cache-Control"], "no-store");
    EXPECT_FALSE(r.extraHeaders["ETag"].empty());
}

TEST(Cacheability, GetAliasMatchesThePostRoute)
{
    DirectService d;
    server::HttpResponse post = d.request(
        "POST", "/check",
        server::checkRequestJson(
            TestRegistry::instance().sourceText("SB+pos"),
            {"base", "SEA_RW"}));
    ASSERT_EQ(post.status, 200);

    server::HttpRequest req;
    req.method = "GET";
    req.path = "/check/SB+pos";
    req.query = "variants=base,SEA_RW";
    server::HttpResponse get = d.service.handle(req);
    ASSERT_EQ(get.status, 200);
    EXPECT_EQ(get.extraHeaders["ETag"], post.extraHeaders["ETag"]);

    // Bodies match modulo schedule-dependent fields.
    auto stableBody = [](const std::string &body) {
        std::string out;
        for (const std::string &line : split(body, '\n'))
            if (!trim(line).empty())
                out += stabilise(trim(line)) + "\n";
        return out;
    };
    EXPECT_EQ(stableBody(get.body), stableBody(post.body));

    // Unknown builtins 404; unknown query parameters 400.
    req.path = "/check/NoSuchTest";
    req.query = "";
    EXPECT_EQ(d.service.handle(req).status, 404);
    req.path = "/check/SB+pos";
    req.query = "bogus=1";
    EXPECT_EQ(d.service.handle(req).status, 400);
    // POSTing to the alias is a method error, with Allow.
    req.method = "POST";
    req.query = "";
    server::HttpResponse wrong = d.service.handle(req);
    EXPECT_EQ(wrong.status, 405);
    EXPECT_EQ(wrong.extraHeaders["Allow"], "GET");
}

TEST(Cacheability, IfNoneMatchHitAnswers304WithoutTheEngine)
{
    DirectService d;
    const std::string body = server::checkRequestJson(
        TestRegistry::instance().sourceText("SB+pos"), {"base"});
    server::HttpResponse first = d.request("POST", "/check", body);
    ASSERT_EQ(first.status, 200);
    const std::string etag = first.extraHeaders["ETag"];
    ASSERT_FALSE(etag.empty());

    server::HttpRequest req;
    req.method = "POST";
    req.path = "/check";
    req.body = body;
    req.headers["if-none-match"] = etag;
    server::HttpResponse out;
    ASSERT_TRUE(d.service.tryNotModified(req, out));
    EXPECT_EQ(out.status, 304);
    EXPECT_EQ(out.extraHeaders["ETag"], etag);
    EXPECT_EQ(d.metrics.http304.load(), 1u);
    EXPECT_EQ(d.metrics.responses304.load(), 1u);

    // A stale validator falls through to the full path...
    req.headers["if-none-match"] = "\"0000000000000000\"";
    EXPECT_FALSE(d.service.tryNotModified(req, out));
    // ...as does a request with no validator at all.
    req.headers.erase("if-none-match");
    EXPECT_FALSE(d.service.tryNotModified(req, out));
    // A wildcard matches anything, as RFC 9110 requires.
    req.headers["if-none-match"] = "*";
    EXPECT_TRUE(d.service.tryNotModified(req, out));
}

// ---------------------------------------------------------------------
// Live server integration
// ---------------------------------------------------------------------

/** Tests the acceptance bar drives against one shared live daemon. */
class LiveServer : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        engine::EngineConfig config;
        config.jobs = 2;
        config.cacheEnabled = true;
        config.cacheDir = "";  // in-memory: hit/miss counters only
        config.resultsPath = scratchDir("live") + "/rexd.jsonl";
        _engine = std::make_unique<engine::Engine>(config);

        server::ServerConfig server_config;
        server_config.threads = 4;
        server_config.maxQueue = 32;
        _server = std::make_unique<server::RexServer>(*_engine,
                                                      server_config);
        _server->start();
    }

    void
    TearDown() override
    {
        _server->requestDrain();
        _server->join();
    }

    server::Client
    client()
    {
        return server::Client("127.0.0.1", _server->port());
    }

    std::unique_ptr<engine::Engine> _engine;
    std::unique_ptr<server::RexServer> _server;
};

TEST_F(LiveServer, HealthAndMetricsRespond)
{
    EXPECT_TRUE(client().healthy());
    server::ClientResponse metrics = client().get("/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("rexd_requests_total"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("rexd_stage_seconds_bucket"),
              std::string::npos);
}

TEST_F(LiveServer, ConcurrentClientsGetByteIdenticalVerdicts)
{
    // Eight concurrent clients, each checking its own builtin test
    // under the full paper matrix, twice (second round = cache hits).
    const std::vector<std::string> tests = {
        "SB+pos",          "MP+pos",          "SB+dmb.sys",
        "MP+dmb.sys",      "SB+dmb.sy+eret",  "MP+dmb.sy+addr",
        "MP+dmb.sy+fault", "LB+pos",
    };
    std::vector<std::string> variants;
    for (const ModelParams &params : ModelParams::paperVariants())
        variants.push_back(params.name());

    // Expected bodies from a private engine running the same wire
    // text through the same record renderer — the direct checker.
    std::vector<std::string> expected(tests.size());
    engine::Engine direct{plainConfig()};
    for (std::size_t i = 0; i < tests.size(); ++i) {
        LitmusTest test = parseLitmus(
            TestRegistry::instance().sourceText(tests[i]));
        for (const std::string &v : variants) {
            engine::JobRecord record =
                direct.verdictRecord(test, ModelParams::byName(v));
            record.wallMicros = 0;
            record.cacheHit = false;
            expected[i] += record.toJson() + "\n";
        }
    }

    for (int round = 0; round < 2; ++round) {
        std::vector<std::string> got(tests.size());
        std::vector<std::thread> workers;
        std::atomic<int> failures{0};
        for (std::size_t i = 0; i < tests.size(); ++i) {
            workers.emplace_back([&, i] {
                try {
                    server::Client c("127.0.0.1", _server->port());
                    server::ClientResponse r = c.check(
                        TestRegistry::instance().sourceText(tests[i]),
                        variants);
                    if (r.status != 200) {
                        ++failures;
                        return;
                    }
                    for (const std::string &line : split(r.body, '\n')) {
                        if (!trim(line).empty())
                            got[i] += stabilise(line) + "\n";
                    }
                } catch (...) {
                    ++failures;
                }
            });
        }
        for (std::thread &w : workers)
            w.join();
        ASSERT_EQ(failures.load(), 0) << "round " << round;
        for (std::size_t i = 0; i < tests.size(); ++i)
            EXPECT_EQ(got[i], expected[i]) << tests[i];
    }

    // Round two re-checked every (test × variant) pair: at least 90%
    // of all verdicts must have come from the shared cache.
    std::string exposition = client().get("/metrics").body;
    double hits = metricValue(exposition, "rexd_cache_hits_total");
    double misses = metricValue(exposition, "rexd_cache_misses_total");
    ASSERT_GE(hits, 0.0);
    ASSERT_GT(hits + misses, 0.0);
    EXPECT_GE(hits / (hits + misses), 0.45);  // whole-run ratio
    // Round 2 alone: every one of its verdicts was a hit.
    double total = tests.size() * variants.size() * 2.0;
    EXPECT_GE(hits, 0.9 * (total / 2.0));
}

TEST_F(LiveServer, OversizedBodyGets413)
{
    std::string huge(_server->config().limits.maxBodyBytes + 1, 'x');
    server::ClientResponse r = client().post("/check", huge);
    EXPECT_EQ(r.status, 413);
}

TEST_F(LiveServer, MalformedJsonGets400)
{
    server::ClientResponse r = client().post("/check", "{oops");
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.body.find("error"), std::string::npos);
}

TEST_F(LiveServer, ConditionalRequestAnswers304WithoutTheEngine)
{
    const std::string &text =
        TestRegistry::instance().sourceText("SB+pos");
    const std::string body = server::checkRequestJson(text, {"base"});

    server::ClientResponse first = client().post("/check", body);
    ASSERT_EQ(first.status, 200);
    const std::string etag = first.headers["etag"];
    ASSERT_FALSE(etag.empty());
    EXPECT_NE(first.headers["cache-control"].find("public"),
              std::string::npos);

    // Engine-activity watermark before the conditional request.
    std::string before = client().get("/metrics").body;
    double hitsBefore = metricValue(before, "rexd_cache_hits_total");
    double missesBefore = metricValue(before, "rexd_cache_misses_total");
    double checksBefore = metricValue(
        before, "rexd_stage_seconds_count{stage=\"check\"}");

    server::ClientResponse cond = client().post(
        "/check", body, "application/json", {{"If-None-Match", etag}});
    EXPECT_EQ(cond.status, 304);
    EXPECT_TRUE(cond.body.empty());
    EXPECT_EQ(cond.headers["etag"], etag);

    // The 304 was answered on the event loop: no cache lookup, no
    // check stage, no pool dispatch — only the counter moved.
    std::string after = client().get("/metrics").body;
    EXPECT_EQ(metricValue(after, "rexd_http_304_total"), 1.0);
    EXPECT_EQ(metricValue(after, "rexd_cache_hits_total"), hitsBefore);
    EXPECT_EQ(metricValue(after, "rexd_cache_misses_total"),
              missesBefore);
    EXPECT_EQ(metricValue(after,
                          "rexd_stage_seconds_count{stage=\"check\"}"),
              checksBefore);

    // A stale validator takes the full path and re-serves the body.
    server::ClientResponse stale = client().post(
        "/check", body, "application/json",
        {{"If-None-Match", "\"0123456789abcdef\""}});
    EXPECT_EQ(stale.status, 200);
    EXPECT_EQ(stale.headers["etag"], etag);
    EXPECT_FALSE(stale.body.empty());

    // Skipping the engine is what makes a revalidation cheap: over one
    // keep-alive connection, alternating cache hits and 304s, the
    // median 304 must beat the median hit.
    server::Client conn = client();
    conn.setKeepAlive(true);
    std::vector<std::int64_t> hitNanos;
    std::vector<std::int64_t> revalidateNanos;
    for (int i = 0; i < 100; ++i) {
        const bool revalidate = i % 2 == 1;
        const auto start = std::chrono::steady_clock::now();
        server::ClientResponse r =
            revalidate ? conn.post("/check", body, "application/json",
                                   {{"If-None-Match", etag}})
                       : conn.post("/check", body);
        const auto nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        ASSERT_EQ(r.status, revalidate ? 304 : 200) << "request " << i;
        (revalidate ? revalidateNanos : hitNanos).push_back(nanos);
    }
    auto median = [](std::vector<std::int64_t> &nanos) {
        std::sort(nanos.begin(), nanos.end());
        return nanos[nanos.size() / 2];
    };
    const std::int64_t hit = median(hitNanos);
    const std::int64_t revalidated = median(revalidateNanos);
    EXPECT_LT(revalidated, hit)
        << "median 304 " << revalidated << " ns, median cache hit "
        << hit << " ns";
}

TEST_F(LiveServer, GetAliasServesBuiltinsOverTheWire)
{
    server::ClientResponse get =
        client().get("/check/SB+pos?variants=base,SEA_RW");
    ASSERT_EQ(get.status, 200);

    server::ClientResponse post = client().post(
        "/check",
        server::checkRequestJson(
            TestRegistry::instance().sourceText("SB+pos"),
            {"base", "SEA_RW"}));
    ASSERT_EQ(post.status, 200);
    EXPECT_EQ(get.headers["etag"], post.headers["etag"]);

    auto stableBody = [](const std::string &body) {
        std::string out;
        for (const std::string &line : split(body, '\n'))
            if (!trim(line).empty())
                out += stabilise(trim(line)) + "\n";
        return out;
    };
    EXPECT_EQ(stableBody(get.body), stableBody(post.body));

    // The alias is conditional-request-capable end to end.
    server::ClientResponse cond = client().get(
        "/check/SB+pos?variants=base,SEA_RW",
        {{"If-None-Match", get.headers["etag"]}});
    EXPECT_EQ(cond.status, 304);

    EXPECT_EQ(client().get("/check/NoSuchTest").status, 404);
}

TEST_F(LiveServer, KeepAliveConnectionServesManyRequests)
{
    int fd = connectTo(_server->port());
    const std::string probe =
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    std::string responses;
    char chunk[4096];
    for (int i = 0; i < 5; ++i) {
        std::string wire = probe;
        if (i == 4)  // last request asks the server to close
            wire = "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                   "Connection: close\r\n\r\n";
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
        if (i == 0) {
            // While the connection sits open: the gauge sees it (plus
            // the /metrics connection doing the asking).
            ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            ASSERT_GT(n, 0);
            responses.append(chunk, static_cast<std::size_t>(n));
            std::string expo = client().get("/metrics").body;
            EXPECT_GE(metricValue(expo, "rexd_open_connections"), 1.0);
        } else if (i < 4) {
            ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            ASSERT_GT(n, 0);
            responses.append(chunk, static_cast<std::size_t>(n));
        }
    }
    responses += recvToEof(fd);
    ::close(fd);

    // Five responses on one connection, the last one marked close.
    std::size_t count = 0;
    for (std::size_t pos = responses.find("HTTP/1.1 200");
         pos != std::string::npos;
         pos = responses.find("HTTP/1.1 200", pos + 1))
        ++count;
    EXPECT_EQ(count, 5u);
    EXPECT_NE(responses.find("Connection: keep-alive"),
              std::string::npos);
    EXPECT_NE(responses.find("Connection: close"), std::string::npos);

    // The per-connection request histogram saw a 5-request close.
    std::string expo = client().get("/metrics").body;
    EXPECT_GE(metricValue(
                  expo, "rexd_keepalive_requests_per_connection_sum"),
              5.0);
    EXPECT_GE(
        metricValue(
            expo,
            "rexd_keepalive_requests_per_connection_bucket{le=\"5\"}"),
        1.0);
}

TEST_F(LiveServer, PipelinedRequestsAnswerInArrivalOrder)
{
    // Three pipelined requests in one write: an engine-bound /check,
    // then two loop-answered probes. The responses must come back in
    // arrival order even though the probes are ready first.
    const std::string body = server::checkRequestJson(
        TestRegistry::instance().sourceText("SB+pos"), {"base"});
    std::string wire =
        "POST /check HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body +
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";

    int fd = connectTo(_server->port());
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    std::string reply = recvToEof(fd);
    ::close(fd);

    std::size_t check = reply.find("HTTP/1.1 200");
    ASSERT_NE(check, std::string::npos) << reply;
    std::size_t health = reply.find("HTTP/1.1 200", check + 1);
    ASSERT_NE(health, std::string::npos) << reply;
    std::size_t missing = reply.find("HTTP/1.1 404");
    ASSERT_NE(missing, std::string::npos) << reply;
    EXPECT_LT(check, health);
    EXPECT_LT(health, missing);
    // The verdict body sits between the first two status lines.
    std::size_t verdict = reply.find("\"test\":\"SB+pos\"");
    ASSERT_NE(verdict, std::string::npos);
    EXPECT_GT(verdict, check);
    EXPECT_LT(verdict, health);
}

TEST_F(LiveServer, AdversarialDeadlineIsBoundedWhileOthersUnaffected)
{
    // The acceptance bar: one client posts the adversarial test with a
    // 200ms deadline and gets a structured exhausted_budget verdict in
    // well under a second, while concurrent unbudgeted clients keep
    // getting byte-identical verdicts throughout.
    const std::vector<std::string> tests = {"SB+pos", "MP+dmb.sys",
                                            "LB+pos", "SB+dmb.sys"};
    std::vector<std::string> expected(tests.size());
    engine::Engine direct{plainConfig()};
    for (std::size_t i = 0; i < tests.size(); ++i) {
        LitmusTest test = parseLitmus(
            TestRegistry::instance().sourceText(tests[i]));
        engine::JobRecord record =
            direct.verdictRecord(test, ModelParams::base());
        record.wallMicros = 0;
        record.cacheHit = false;
        expected[i] = record.toJson() + "\n";
    }

    std::atomic<int> failures{0};
    std::vector<std::string> got(tests.size());
    std::vector<std::thread> bystanders;
    for (std::size_t i = 0; i < tests.size(); ++i) {
        bystanders.emplace_back([&, i] {
            try {
                server::Client c("127.0.0.1", _server->port());
                server::ClientResponse r = c.check(
                    TestRegistry::instance().sourceText(tests[i]),
                    {"base"});
                if (r.status != 200) {
                    ++failures;
                    return;
                }
                got[i] = stabilise(trim(r.body)) + "\n";
            } catch (...) {
                ++failures;
            }
        });
    }

    const auto start = std::chrono::steady_clock::now();
    server::ClientResponse adversarial =
        client().check(kAdversarialTest, {"base"}, 0, /*deadlineMs=*/200);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    for (std::thread &w : bystanders)
        w.join();

    ASSERT_EQ(adversarial.status, 200);
    server::JsonValue record =
        server::parseJson(trim(adversarial.body));
    EXPECT_EQ(record.find("verdict")->string, "ExhaustedBudget");
    ASSERT_NE(record.find("exhausted_axis"), nullptr);
    EXPECT_EQ(record.find("exhausted_axis")->string, "deadline");
    const std::string stage = record.find("stage")->string;
    EXPECT_TRUE(stage == "traces" || stage == "plan" ||
                stage == "enumerate" || stage == "merge")
        << stage;
    EXPECT_LT(elapsed.count(), 500);

    ASSERT_EQ(failures.load(), 0);
    for (std::size_t i = 0; i < tests.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << tests[i];

    std::string exposition = client().get("/metrics").body;
    EXPECT_GE(metricValue(exposition,
                          "rexd_budget_trips_total{axis=\"deadline\"}"),
              1.0);
    EXPECT_GE(
        metricValue(exposition,
                    "rexd_verdicts_total{verdict=\"exhausted_budget\"}"),
        1.0);
}

TEST_F(LiveServer, CandidateCeilingTripIsDeterministicAndUncached)
{
    // max_candidates is the exactly-deterministic axis: the same
    // budgeted request yields the same partial record every time, and
    // exhausted verdicts never come from (or poison) the cache.
    const std::string &text =
        TestRegistry::instance().sourceText("MP+dmb.sys");
    std::string first, second;
    for (std::string *out : {&first, &second}) {
        server::ClientResponse r = client().check(
            text, {"base"}, 0, 0, /*maxCandidates=*/1);
        ASSERT_EQ(r.status, 200);
        server::JsonValue record = server::parseJson(trim(r.body));
        EXPECT_EQ(record.find("verdict")->string, "ExhaustedBudget");
        EXPECT_EQ(record.find("exhausted_axis")->string, "candidates");
        EXPECT_EQ(record.find("candidates")->integer, 1);
        EXPECT_FALSE(record.find("cache_hit")->boolean);
        *out = stabilise(trim(r.body));
    }
    EXPECT_EQ(first, second);

    // An unbudgeted check of the same test is unaffected by the
    // exhausted runs and serves the full verdict.
    server::ClientResponse full = client().check(text, {"base"});
    ASSERT_EQ(full.status, 200);
    EXPECT_EQ(server::parseJson(trim(full.body)).find("verdict")->string,
              "Forbidden");
}

TEST(ServerBudgetCaps, CapsClampEveryRequestIncludingUnbudgeted)
{
    engine::Engine engine{plainConfig(1)};
    server::ServerConfig config;
    config.threads = 2;
    config.maxCandidates = 1;  // server-wide ceiling
    server::RexServer server(engine, config);
    server.start();

    const std::string &text =
        TestRegistry::instance().sourceText("MP+dmb.sys");
    server::Client c("127.0.0.1", server.port());

    // A request asking for no budget at all is still capped...
    server::ClientResponse unbudgeted = c.check(text, {"base"});
    ASSERT_EQ(unbudgeted.status, 200);
    server::JsonValue record =
        server::parseJson(trim(unbudgeted.body));
    EXPECT_EQ(record.find("verdict")->string, "ExhaustedBudget");
    EXPECT_EQ(record.find("candidates")->integer, 1);

    // ...and a request asking for more than the cap is clamped down.
    server::ClientResponse greedy =
        c.check(text, {"base"}, 0, 0, /*maxCandidates=*/100);
    ASSERT_EQ(greedy.status, 200);
    EXPECT_EQ(server::parseJson(trim(greedy.body))
                  .find("candidates")
                  ->integer,
              1);

    server.requestDrain();
    server.join();
}

TEST(ServerReadTimeout, SlowLorisGets408AndIsCountedDistinctly)
{
    engine::Engine engine{plainConfig(1)};
    server::ServerConfig config;
    config.threads = 1;
    config.limits.ioTimeoutSeconds = 1;
    server::RexServer server(engine, config);
    server.start();

    // Open a connection, send half a request line, and stall: the
    // per-socket read timeout must answer 408 (not 400) and count it
    // in both the response and read-timeout counters.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char *partial = "POST /check HT";
    ASSERT_EQ(::send(fd, partial, std::strlen(partial), 0),
              static_cast<ssize_t>(std::strlen(partial)));

    std::string reply;
    char chunk[1024];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        reply.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);
    EXPECT_NE(reply.find("HTTP/1.1 408"), std::string::npos) << reply;

    server.requestDrain();
    server.join();
    EXPECT_EQ(server.metrics().responses408.load(), 1u);
    EXPECT_EQ(server.metrics().readTimeouts.load(), 1u);
    EXPECT_EQ(server.metrics().responses400.load(), 0u);
}

TEST(ServerIdleTimeout, IdleKeepAliveConnectionsAreClosedAndCounted)
{
    engine::Engine engine{plainConfig(1)};
    server::ServerConfig config;
    config.threads = 1;
    config.idleTimeoutSeconds = 1;
    server::RexServer server(engine, config);
    server.start();

    // Complete one request so the connection is parked between
    // requests, then go quiet: the idle deadline must close it —
    // silently (no 408: an idle peer owes the server nothing).
    int fd = connectTo(server.port());
    const std::string probe =
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    ASSERT_EQ(::send(fd, probe.data(), probe.size(), 0),
              static_cast<ssize_t>(probe.size()));
    std::string reply = recvToEof(fd);  // response, then idle close
    ::close(fd);
    EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_EQ(reply.find("HTTP/1.1 408"), std::string::npos);

    server.requestDrain();
    server.join();
    EXPECT_EQ(server.metrics().idleTimeouts.load(), 1u);
    EXPECT_EQ(server.metrics().responses408.load(), 0u);
    EXPECT_EQ(server.metrics().readTimeouts.load(), 0u);
}

TEST(ServerCeiling, ConnectionsBeyondTheCeilingAreShedWith503)
{
    engine::Engine engine{plainConfig(1)};
    server::ServerConfig config;
    config.threads = 1;
    config.maxConnections = 2;
    server::RexServer server(engine, config);
    server.start();

    // Fill the ceiling with two live keep-alive connections...
    const std::string probe =
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    int held[2];
    for (int &fd : held) {
        fd = connectTo(server.port());
        ASSERT_EQ(::send(fd, probe.data(), probe.size(), 0),
                  static_cast<ssize_t>(probe.size()));
        char chunk[4096];
        ASSERT_GT(::recv(fd, chunk, sizeof(chunk), 0), 0);
    }

    // ...and the third accept is shed before reading a single byte.
    int extra = connectTo(server.port());
    std::string reply = recvToEof(extra);
    ::close(extra);
    EXPECT_NE(reply.find("HTTP/1.1 503"), std::string::npos) << reply;
    EXPECT_NE(reply.find("Retry-After:"), std::string::npos) << reply;

    // The held connections still work after the shed.
    for (int fd : held) {
        ASSERT_EQ(::send(fd, probe.data(), probe.size(), 0),
                  static_cast<ssize_t>(probe.size()));
        char chunk[4096];
        ASSERT_GT(::recv(fd, chunk, sizeof(chunk), 0), 0);
        ::close(fd);
    }

    server.requestDrain();
    server.join();
    EXPECT_GE(server.metrics().queueRejected.load(), 1u);
    EXPECT_GE(server.metrics().responses503.load(), 1u);
}

TEST(ClientKeepAlive, PooledConnectionDropIsRepairedWithoutARetry)
{
    engine::Engine engine{plainConfig(1)};
    server::ServerConfig config;
    config.threads = 1;
    config.idleTimeoutSeconds = 1;
    server::RexServer server(engine, config);
    server.start();

    // Retries stay disabled (maxAttempts 1): the reconnect after the
    // server drops the pooled connection must be the free one.
    server::Client c("127.0.0.1", server.port());
    c.setKeepAlive(true);
    EXPECT_EQ(c.get("/healthz").status, 200);

    // Let the server's idle timeout reap the pooled connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(3500));
    EXPECT_EQ(c.get("/healthz").status, 200);
    EXPECT_EQ(c.get("/healthz").status, 200);  // and the pool still works

    server.requestDrain();
    server.join();
    EXPECT_GE(server.metrics().idleTimeouts.load(), 1u);
}

TEST(ClientRetry, TransportErrorsAreRetriedWithBackoff)
{
    // Port 1 refuses immediately; three attempts must sleep through
    // two backoff rounds (~40ms + ~80ms, +-25% jitter) before the
    // final failure surfaces.
    server::Client c("127.0.0.1", 1);
    server::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.initialDelayMs = 40;
    policy.totalDeadlineMs = 10000;
    c.setRetryPolicy(policy);

    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(c.get("/healthz"), FatalError);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_GE(elapsed.count(), 90);  // 30 + 60: both floors of the jitter
}

TEST(ClientRetry, TotalDeadlineShortCircuitsTheSleep)
{
    server::Client c("127.0.0.1", 1);
    server::RetryPolicy policy;
    policy.maxAttempts = 10;
    policy.initialDelayMs = 500;
    policy.totalDeadlineMs = 100;  // first backoff would overrun it
    c.setRetryPolicy(policy);

    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(c.get("/healthz"), FatalError);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 400);
}

TEST(ServerBackpressure, FullQueueShedsWith503)
{
    engine::Engine engine{plainConfig(1)};
    server::ServerConfig config;
    config.threads = 1;
    config.maxQueue = 1;
    server::RexServer server(engine, config);
    server.start();

    const std::string &text =
        TestRegistry::instance().sourceText("SB+pos");

    // Pin the single handler thread with a sleeping request, then
    // flood: with one handler busy and a one-slot queue, most of the
    // flood must be shed with 503 + Retry-After.
    std::thread pinned([&] {
        try {
            server::Client c("127.0.0.1", server.port());
            c.check(text, {"base"}, 700);
        } catch (...) {
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    std::atomic<int> shed{0}, served{0};
    bool saw_retry_after = false;
    std::mutex retry_mutex;
    std::vector<std::thread> flood;
    for (int i = 0; i < 8; ++i) {
        flood.emplace_back([&] {
            try {
                server::Client c("127.0.0.1", server.port());
                server::ClientResponse r = c.check(text, {"base"}, 300);
                if (r.status == 503) {
                    ++shed;
                    std::lock_guard<std::mutex> lock(retry_mutex);
                    if (r.headers.count("retry-after"))
                        saw_retry_after = true;
                } else if (r.status == 200) {
                    ++served;
                }
            } catch (...) {
            }
        });
    }
    for (std::thread &w : flood)
        w.join();
    pinned.join();

    EXPECT_GT(shed.load(), 0);
    EXPECT_TRUE(saw_retry_after);
    EXPECT_GT(served.load(), 0);

    server.requestDrain();
    server.join();
    EXPECT_EQ(server.metrics().queueRejected.load(),
              static_cast<std::uint64_t>(shed.load()));
}

TEST(ServerDrain, InFlightRequestsFinishAndResultsFileIsComplete)
{
    std::string dir = scratchDir("drain");
    engine::EngineConfig engine_config;
    engine_config.jobs = 2;
    engine_config.cacheEnabled = false;
    engine_config.resultsPath = dir + "/rexd.jsonl";
    engine::Engine engine{engine_config};

    server::ServerConfig config;
    config.threads = 2;
    config.maxQueue = 16;
    server::RexServer server(engine, config);
    server.start();

    const std::string &text =
        TestRegistry::instance().sourceText("MP+dmb.sys");

    // Six slow requests in flight, then drain mid-stream.
    std::atomic<int> ok{0}, other{0};
    std::vector<std::thread> workers;
    for (int i = 0; i < 6; ++i) {
        workers.emplace_back([&] {
            server::Client c("127.0.0.1", server.port());
            server::ClientResponse r =
                c.check(text, {"base", "SEA_RW"}, 200);
            (r.status == 200 ? ok : other)++;
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.requestDrain();
    server.join();
    for (std::thread &w : workers)
        w.join();

    // Everything accepted before the drain was served in full; the
    // JSONL results file holds only complete, parseable records.
    EXPECT_EQ(ok.load() + other.load(), 6);
    EXPECT_GT(ok.load(), 0);

    std::ifstream in(engine_config.resultsPath);
    ASSERT_TRUE(in.good());
    std::string line;
    std::uint64_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_NO_THROW(server::parseJson(line)) << line;
        EXPECT_EQ(line.back(), '}');
    }
    // One record per served verdict, none truncated, none lost.
    EXPECT_EQ(lines, static_cast<std::uint64_t>(ok.load()) * 2u);
    EXPECT_EQ(lines, engine.results().records());

    // A post-drain connection is refused (the listener is closed).
    server::Client late("127.0.0.1", server.port());
    EXPECT_FALSE(late.healthy());
}

// ---------------------------------------------------------------------
// Supervised workers: crash containment, hard deadlines, quarantine
// ---------------------------------------------------------------------

/** Disarm the process-wide fault injector on scope exit, pass or fail. */
struct FaultGuard {
    ~FaultGuard() { engine::faultInjector().configure(""); }
};

/** A rexd stack with process-isolated workers, torn down in order. */
struct SupervisedStack {
    explicit SupervisedStack(unsigned workers, unsigned quarantine = 3,
                             std::uint64_t killGraceMs = 2000)
    {
        engine::EngineConfig config;
        config.jobs = 2;
        config.cacheEnabled = false;
        config.workers = workers;
        config.crashQuarantine = quarantine;
        config.killGraceMs = killGraceMs;
        engine = std::make_unique<engine::Engine>(config);

        server::ServerConfig server_config;
        server_config.threads = 4;
        server_config.maxQueue = 32;
        server = std::make_unique<server::RexServer>(*engine,
                                                     server_config);
        server->start();
    }

    ~SupervisedStack()
    {
        server->requestDrain();
        server->join();
    }

    server::ClientResponse
    check(const std::string &name, std::int64_t deadlineMs = 0)
    {
        server::Client c("127.0.0.1", server->port());
        return c.check(TestRegistry::instance().sourceText(name),
                       {"base"}, 0, deadlineMs);
    }

    std::string
    metricsBody()
    {
        server::Client c("127.0.0.1", server->port());
        return c.get("/metrics").body;
    }

    std::unique_ptr<engine::Engine> engine;
    std::unique_ptr<server::RexServer> server;
};

TEST(SupervisedServer, HungWorkerIsKilledWhileConcurrentVerdictsMatch)
{
    // The acceptance bar: one request's worker wedges mid-job; it is
    // SIGKILLed at the hard deadline and answered with a CrashedWorker
    // record, while requests served concurrently — during the hang —
    // come back byte-identical to a direct, unsupervised engine.
    FaultGuard disarm;
    SupervisedStack stack(/*workers=*/2, /*quarantine=*/3,
                          /*killGraceMs=*/400);

    const std::vector<std::string> tests = {"SB+pos", "MP+dmb.sys",
                                            "LB+pos", "SB+dmb.sys"};
    std::vector<std::string> expected(tests.size());
    engine::Engine direct{plainConfig()};
    for (std::size_t i = 0; i < tests.size(); ++i) {
        LitmusTest test = parseLitmus(
            TestRegistry::instance().sourceText(tests[i]));
        engine::JobRecord record =
            direct.verdictRecord(test, ModelParams::base());
        record.wallMicros = 0;
        record.cacheHit = false;
        expected[i] = record.toJson() + "\n";
    }

    engine::faultInjector().configure("worker-hang:1.0:7");
    std::string victimBody;
    const auto start = std::chrono::steady_clock::now();
    std::thread victim([&] {
        victimBody = stack.check("MP+pos", /*deadlineMs=*/400).body;
    });
    // The hang decision is made in the parent at dispatch: once one is
    // injected the victim's worker is wedged, and disarming leaves the
    // bystanders' dispatches clean while it still spins.
    while (engine::faultInjector().injected(
               engine::FaultPoint::WorkerHang) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    engine::faultInjector().configure("");

    std::atomic<int> failures{0};
    std::vector<std::string> got(tests.size());
    std::vector<std::thread> bystanders;
    for (std::size_t i = 0; i < tests.size(); ++i) {
        bystanders.emplace_back([&, i] {
            try {
                server::ClientResponse r = stack.check(tests[i]);
                if (r.status != 200) {
                    ++failures;
                    return;
                }
                got[i] = stabilise(trim(r.body)) + "\n";
            } catch (...) {
                ++failures;
            }
        });
    }
    for (std::thread &w : bystanders)
        w.join();
    victim.join();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);

    // The spinning worker was SIGKILLed within deadline + grace (plus
    // scheduling slack), not left to wedge the slot forever.
    server::JsonValue record = server::parseJson(trim(victimBody));
    ASSERT_NE(record.find("verdict"), nullptr) << victimBody;
    EXPECT_EQ(record.find("verdict")->string, "CrashedWorker");
    ASSERT_NE(record.find("signal"), nullptr);
    EXPECT_EQ(record.find("signal")->string, "SIGKILL");
    EXPECT_GE(elapsed.count(), 400);
    EXPECT_LT(elapsed.count(), 5000);

    ASSERT_EQ(failures.load(), 0);
    for (std::size_t i = 0; i < tests.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << tests[i];

    std::string exposition = stack.metricsBody();
    EXPECT_GE(metricValue(exposition,
                          "rexd_worker_crashes_total{signal=\"SIGKILL\"}"),
              1.0);
    EXPECT_GE(
        metricValue(exposition,
                    "rexd_verdicts_total{verdict=\"crashed_worker\"}"),
        1.0);
}

TEST(SupervisedServer, CrashedWorkerRespawnsAndTheNextVerdictIsClean)
{
    FaultGuard disarm;
    SupervisedStack stack(/*workers=*/1);

    engine::faultInjector().configure("worker-crash:1.0:7");
    server::ClientResponse crashed = stack.check("MP+dmb.sys");
    ASSERT_EQ(crashed.status, 200);
    server::JsonValue record = server::parseJson(trim(crashed.body));
    EXPECT_EQ(record.find("verdict")->string, "CrashedWorker");
    EXPECT_EQ(record.find("signal")->string, "SIGSEGV");
    ASSERT_NE(record.find("crashes"), nullptr);
    EXPECT_EQ(record.find("crashes")->integer, 1);

    // Disarmed, the same request rides the respawned worker to the
    // verdict a direct engine computes — no supervision fields.
    engine::faultInjector().configure("");
    server::ClientResponse clean = stack.check("MP+dmb.sys");
    ASSERT_EQ(clean.status, 200);
    engine::Engine direct{plainConfig()};
    LitmusTest test = parseLitmus(
        TestRegistry::instance().sourceText("MP+dmb.sys"));
    engine::JobRecord expected =
        direct.verdictRecord(test, ModelParams::base());
    expected.wallMicros = 0;
    expected.cacheHit = false;
    EXPECT_EQ(stabilise(trim(clean.body)), expected.toJson());
    EXPECT_EQ(clean.body.find("\"signal\""), std::string::npos);

    std::string exposition = stack.metricsBody();
    EXPECT_GE(metricValue(exposition, "rexd_worker_crashes_total"), 1.0);
    EXPECT_GE(metricValue(exposition, "rexd_worker_respawns_total"),
              1.0);
    EXPECT_EQ(metricValue(exposition, "rexd_workers_configured"), 1.0);
    EXPECT_EQ(metricValue(exposition, "rexd_workers_live"), 1.0);
}

TEST(SupervisedServer, QuarantineTripsAfterRepeatCrashesAndIsMetered)
{
    FaultGuard disarm;
    SupervisedStack stack(/*workers=*/1, /*quarantine=*/2);

    engine::faultInjector().configure("worker-crash:1.0:7");
    for (int round = 0; round < 2; ++round) {
        server::ClientResponse r = stack.check("MP+pos");
        ASSERT_EQ(r.status, 200);
        EXPECT_EQ(server::parseJson(trim(r.body))
                      .find("verdict")->string,
                  "CrashedWorker")
            << "round " << round;
    }

    // Two crashes reached the threshold: even disarmed, the key is
    // answered from the ledger without dispatching a worker.
    engine::faultInjector().configure("");
    server::ClientResponse quarantined = stack.check("MP+pos");
    ASSERT_EQ(quarantined.status, 200);
    server::JsonValue record =
        server::parseJson(trim(quarantined.body));
    EXPECT_EQ(record.find("verdict")->string, "Quarantined");
    EXPECT_EQ(record.find("signal")->string, "SIGSEGV");
    EXPECT_EQ(record.find("crashes")->integer, 2);

    // Other keys are untouched by the quarantine.
    server::ClientResponse other = stack.check("SB+pos");
    ASSERT_EQ(other.status, 200);
    engine::Engine direct{plainConfig()};
    LitmusTest sb = parseLitmus(
        TestRegistry::instance().sourceText("SB+pos"));
    engine::JobRecord expected =
        direct.verdictRecord(sb, ModelParams::base());
    expected.wallMicros = 0;
    expected.cacheHit = false;
    EXPECT_EQ(stabilise(trim(other.body)), expected.toJson());

    std::string exposition = stack.metricsBody();
    EXPECT_GE(metricValue(exposition, "rexd_quarantined_total"), 1.0);
    EXPECT_EQ(metricValue(exposition, "rexd_quarantined_keys"), 1.0);
    EXPECT_GE(metricValue(exposition,
                          "rexd_worker_crashes_total{signal=\"SIGSEGV\"}"),
              2.0);
    EXPECT_GE(
        metricValue(exposition,
                    "rexd_verdicts_total{verdict=\"quarantined\"}"),
        1.0);
}

TEST(SupervisedServer, RetryCrashedPolicyRidesTheRespawnToAVerdict)
{
    // Find a seed whose first worker-crash draw fails and whose next
    // few pass, replicating the injector's splitmix64 mapping: the
    // first attempt crashes, the client's retry lands on the respawned
    // worker and gets the real verdict.
    auto draw = [](std::uint64_t x) {
        return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
    };
    const double p = 0.5;
    std::uint64_t seed = 0;
    for (;; ++seed) {
        if (draw(seed) >= p)
            continue;
        bool clean = true;
        for (std::uint64_t k = 1; k <= 8 && clean; ++k)
            clean = draw(seed + k) >= p;
        if (clean)
            break;
    }

    FaultGuard disarm;
    SupervisedStack stack(/*workers=*/1);
    engine::faultInjector().configure(
        format("worker-crash:0.5:%llu",
               static_cast<unsigned long long>(seed)));

    server::Client c("127.0.0.1", stack.server->port());
    server::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.initialDelayMs = 10;
    policy.retryCrashed = true;
    c.setRetryPolicy(policy);
    server::ClientResponse r = c.check(
        TestRegistry::instance().sourceText("MP+dmb.sys"), {"base"});
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(server::parseJson(trim(r.body)).find("verdict")->string,
              "Forbidden");
    EXPECT_EQ(engine::faultInjector().injected(
                  engine::FaultPoint::WorkerCrash),
              1u);
    EXPECT_GE(engine::faultInjector().checked(
                  engine::FaultPoint::WorkerCrash),
              2u);
}

} // namespace
} // namespace rex
