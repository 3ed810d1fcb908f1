/**
 * @file
 * rex_client: command-line client for the rexd litmus-checking daemon.
 *
 * Usage:
 *   ./example_rex_client [options] FILE.litmus
 *   ./example_rex_client [options] --builtin TEST-NAME
 *   ./example_rex_client [options] -              # test text on stdin
 *   ./example_rex_client --metrics | --health
 *   ./example_rex_client --post PATH              # raw body on stdin
 *
 * Options:
 *   --host H        daemon host (default 127.0.0.1)
 *   --port P        daemon port (default 8643)
 *   --variants L    comma-separated variant names, or "paper" for the
 *                   paper's five-variant matrix (default: base)
 *   --sleep-ms N    forward the server-side test hook (pins the request
 *                   in a handler thread; used by CI's backpressure test)
 *   --deadline-ms N       per-request wall-clock budget; the server
 *                         answers ExhaustedBudget records past it. A
 *                         deadline over 30 s also stretches the client's
 *                         socket timeout (default 30 s) to the deadline
 *                         plus 30 s
 *   --max-candidates N    per-request candidate-count budget
 *   --retries N           total attempts on 503/transport errors
 *                         (default 1 = no retries); backoff honours the
 *                         server's Retry-After, capped exponential
 *   --retry-deadline-ms N give up retrying past this wall time (default
 *                         15000)
 *   --retry-crashed also retry 200 responses carrying a CrashedWorker
 *                   verdict (the respawned worker gets a fresh chance);
 *                   Quarantined responses are never retried
 *   --keep-alive    reuse one pooled HTTP/1.1 connection across
 *                   requests instead of one connection per request
 *   --repeat N      send the /check request N times (pairs with
 *                   --keep-alive to exercise connection reuse); the
 *                   body of every response is printed in order
 *   --resumable     opt into rex-cont-v1 continuations: a budget-tripped
 *                   check answers an ExhaustedBudget record carrying a
 *                   "continuation" token that a later request can replay
 *   --resume-budget N     when the response is budget-tripped, re-POST
 *                         the continuation token automatically up to N
 *                         times and stitch the final verdict stream
 *                         (implies --resumable; requires exactly one
 *                         variant — a token binds to a single job).
 *                         Progress for each hop goes to stderr; stdout
 *                         gets only the final response body
 *   --stable        normalise the JSONL output for diffing: zero the
 *                   schedule-dependent wall_us and cache_hit fields
 *   --direct        skip the network and run the request through an
 *                   in-process CheckService on a local engine — the
 *                   exact code path rexd serves, minus the sockets.
 *                   CI diffs `--direct --stable` against the daemon's
 *                   `--stable` output to prove byte-identical verdicts.
 *
 * Exit status: 0 on HTTP 200 (or healthy), 4 on a 4xx response, 5 on a
 * 5xx response, 1 on transport/usage errors. Response bodies go to
 * stdout either way; the status line goes to stderr when not 200.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/strings.hh"
#include "engine/batch.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "server/client.hh"
#include "server/json.hh"
#include "server/service.hh"

namespace {

/** Transport slack past a long --deadline-ms: queue wait plus the time
 *  to serialise and send the answer after the budget runs out. */
constexpr long long kDeadlineMarginSeconds = 30;

std::string
readAllOfStdin()
{
    std::ostringstream text;
    text << std::cin.rdbuf();
    return text.str();
}

std::string
readFileOrDie(const std::string &path)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (!in)
        rex::fatal("cannot open litmus file '" + path + "'");
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
        text.append(buf, n);
    std::fclose(in);
    return text;
}

/**
 * Re-render one JSONL verdict line with the schedule-dependent fields
 * (wall_us, cache_hit) zeroed, so two runs of the same checks diff
 * clean. Round-trips through the server's own JSON parser and the
 * engine's own record renderer — no third serialisation to drift.
 */
std::string
stabiliseLine(const std::string &line)
{
    using rex::server::JsonValue;
    JsonValue v = rex::server::parseJson(line);
    auto str = [&](const char *key) {
        const JsonValue *m = v.find(key);
        return m && m->isString() ? m->string : std::string();
    };
    auto num = [&](const char *key) -> std::uint64_t {
        const JsonValue *m = v.find(key);
        return m && m->isInt() ? static_cast<std::uint64_t>(m->integer)
                               : 0;
    };
    rex::engine::JobRecord record;
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
    record.wallMicros = 0;
    record.cacheHit = false;
    return record.toJson();
}

std::string
stabiliseBody(const std::string &body)
{
    std::string out;
    for (const std::string &line : rex::split(body, '\n')) {
        std::string trimmed = rex::trim(line);
        if (trimmed.empty())
            continue;
        out += stabiliseLine(trimmed);
        out += '\n';
    }
    return out;
}

int
exitCodeFor(int status)
{
    if (status == 200)
        return 0;
    return status >= 500 ? 5 : 4;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--host H] [--port P] [--variants LIST] "
                 "[--sleep-ms N]\n"
                 "          [--deadline-ms N] [--max-candidates N] "
                 "[--retries N]\n"
                 "          [--retry-deadline-ms N] [--retry-crashed] "
                 "[--stable] [--direct]\n"
                 "          [--keep-alive] [--repeat N] [--resumable]\n"
                 "          [--resume-budget N]\n"
                 "          (FILE.litmus | --builtin NAME | -)\n"
                 "       %s [--host H] [--port P] --metrics | --health\n"
                 "       %s [--host H] [--port P] --post PATH   "
                 "(body on stdin)\n",
                 argv0, argv0, argv0);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rex;

    std::string host = "127.0.0.1";
    int port = 8643;
    std::string variantsArg = "base";
    int sleepMs = 0;
    long long deadlineMs = 0;
    long long maxCandidates = 0;
    int retries = 1;
    int retryDeadlineMs = 15000;
    bool retryCrashed = false;
    bool keepAlive = false;
    int repeat = 1;
    bool resumable = false;
    long long resumeBudget = 0;
    bool stable = false;
    bool direct = false;
    bool wantMetrics = false;
    bool wantHealth = false;
    std::string postPath;
    std::string builtinName;
    std::string file;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--host") {
            host = value();
        } else if (arg == "--port") {
            port = std::atoi(value().c_str());
        } else if (arg == "--variants") {
            variantsArg = value();
        } else if (arg == "--sleep-ms") {
            sleepMs = std::atoi(value().c_str());
        } else if (arg == "--deadline-ms") {
            deadlineMs = std::atoll(value().c_str());
        } else if (arg == "--max-candidates") {
            maxCandidates = std::atoll(value().c_str());
        } else if (arg == "--retries") {
            retries = std::atoi(value().c_str());
        } else if (arg == "--retry-deadline-ms") {
            retryDeadlineMs = std::atoi(value().c_str());
        } else if (arg == "--retry-crashed") {
            retryCrashed = true;
        } else if (arg == "--keep-alive") {
            keepAlive = true;
        } else if (arg == "--repeat") {
            repeat = std::atoi(value().c_str());
        } else if (arg == "--resumable") {
            resumable = true;
        } else if (arg == "--resume-budget") {
            resumeBudget = std::atoll(value().c_str());
            resumable = true;
        } else if (arg == "--stable") {
            stable = true;
        } else if (arg == "--direct") {
            direct = true;
        } else if (arg == "--metrics") {
            wantMetrics = true;
        } else if (arg == "--health") {
            wantHealth = true;
        } else if (arg == "--post") {
            postPath = value();
        } else if (arg == "--builtin") {
            builtinName = value();
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage(argv[0]);
        } else {
            file = arg;
        }
    }

    try {
        // The transport must outwait the server-side budget: a deadline
        // longer than the default socket timeout gets the deadline plus
        // a fixed margin for queueing and sending the answer.
        int timeoutSeconds = server::kClientTimeoutSeconds;
        if (deadlineMs > timeoutSeconds * 1000LL) {
            timeoutSeconds = static_cast<int>(std::min<long long>(
                deadlineMs / 1000 + 1 + kDeadlineMarginSeconds,
                std::numeric_limits<int>::max()));
        }
        server::Client client(host, static_cast<std::uint16_t>(port),
                              timeoutSeconds);
        if (retries > 1) {
            server::RetryPolicy policy;
            policy.maxAttempts = retries;
            policy.totalDeadlineMs = retryDeadlineMs;
            policy.retryCrashed = retryCrashed;
            policy.keepAlive = keepAlive;
            client.setRetryPolicy(policy);
        }
        client.setKeepAlive(keepAlive);

        if (wantHealth) {
            bool ok = client.healthy();
            std::printf("%s\n", ok ? "ok" : "unhealthy");
            return ok ? 0 : 1;
        }
        if (wantMetrics) {
            server::ClientResponse r = client.get("/metrics");
            std::fwrite(r.body.data(), 1, r.body.size(), stdout);
            return exitCodeFor(r.status);
        }
        if (!postPath.empty()) {
            server::ClientResponse r =
                client.post(postPath, readAllOfStdin());
            if (r.status != 200)
                std::fprintf(stderr, "HTTP %d\n", r.status);
            std::fwrite(r.body.data(), 1, r.body.size(), stdout);
            if (!r.body.empty() && r.body.back() != '\n')
                std::printf("\n");
            return exitCodeFor(r.status);
        }

        // A /check request: resolve the test text and the variant list.
        std::string testText;
        if (!builtinName.empty())
            testText = TestRegistry::instance().sourceText(builtinName);
        else if (file == "-")
            testText = readAllOfStdin();
        else if (!file.empty())
            testText = readFileOrDie(file);
        else
            return usage(argv[0]);

        std::vector<std::string> variants;
        if (variantsArg == "paper") {
            for (const ModelParams &params : ModelParams::paperVariants())
                variants.push_back(params.name());
        } else {
            for (const std::string &v : split(variantsArg, ',')) {
                std::string name = trim(v);
                if (!name.empty())
                    variants.push_back(name);
            }
        }

        if (resumeBudget > 0 && variants.size() != 1)
            fatal("--resume-budget requires exactly one variant "
                  "(a continuation token binds to a single job)");

        // The daemon's exact serving path, in-process: same JSON
        // request, same service, same JSONL renderer. Built lazily so
        // network-only invocations never spin up an engine.
        std::unique_ptr<engine::Engine> directEngine;
        server::Metrics directMetrics;
        std::unique_ptr<server::CheckService> directService;
        if (direct) {
            directEngine = std::make_unique<engine::Engine>();
            directService = std::make_unique<server::CheckService>(
                *directEngine, directMetrics);
        }

        // One /check POST, resumed or fresh, over whichever transport
        // was asked for; both paths serialise through checkRequestJson
        // so the bytes on the wire cannot differ.
        auto postCheck =
            [&](const std::string &resume) -> std::pair<int, std::string> {
            std::string requestBody = server::checkRequestJson(
                testText, variants, sleepMs, deadlineMs, maxCandidates,
                resumable, resume);
            if (direct) {
                server::HttpRequest request;
                request.method = "POST";
                request.path = "/check";
                request.body = std::move(requestBody);
                server::HttpResponse response =
                    directService->handle(request);
                return {response.status, response.body};
            }
            server::ClientResponse r =
                client.post("/check", requestBody);
            return {r.status, r.body};
        };

        // The continuation token of @p respBody's last record, or ""
        // when the stream ended complete (or unparseable).
        auto continuationOf =
            [](const std::string &respBody) -> std::string {
            std::string last;
            for (const std::string &line : split(respBody, '\n')) {
                std::string t = trim(line);
                if (!t.empty())
                    last = std::move(t);
            }
            if (last.empty())
                return {};
            try {
                server::JsonValue v = server::parseJson(last);
                const server::JsonValue *verdict = v.find("verdict");
                const server::JsonValue *cont = v.find("continuation");
                if (verdict && verdict->isString() &&
                    verdict->string == "ExhaustedBudget" && cont &&
                    cont->isString() && !cont->string.empty())
                    return cont->string;
            } catch (const FatalError &) {
            }
            return {};
        };

        int status = 0;
        std::string body;
        for (int shot = 0; shot < std::max(1, repeat); ++shot) {
            auto [s, b] = postCheck(std::string());
            status = s;
            body = std::move(b);
            if (status != 200)
                break;
            if (shot + 1 < std::max(1, repeat)) {
                // Print every body but the last now; the last goes
                // through the shared status/stabilise path below.
                std::string rendered =
                    stable ? stabiliseBody(body) : body;
                std::fwrite(rendered.data(), 1, rendered.size(),
                            stdout);
            }
        }

        // Stitch budget-tripped responses: while the last record is an
        // ExhaustedBudget carrying a continuation, replay the token.
        // The final body is the stitched stream's tail — each resumed
        // response supersedes the partial it continued from.
        for (long long hop = 0;
             status == 200 && hop < resumeBudget; ++hop) {
            std::string token = continuationOf(body);
            if (token.empty())
                break;
            std::fprintf(stderr,
                         "resume %lld/%lld: re-posting continuation "
                         "(%zu bytes)\n",
                         hop + 1, resumeBudget, token.size());
            auto [s, b] = postCheck(token);
            status = s;
            body = std::move(b);
        }

        if (status != 200) {
            std::fprintf(stderr, "HTTP %d\n", status);
            std::fwrite(body.data(), 1, body.size(), stdout);
            if (!body.empty() && body.back() != '\n')
                std::printf("\n");
            return exitCodeFor(status);
        }
        std::string rendered = stable ? stabiliseBody(body) : body;
        std::fwrite(rendered.data(), 1, rendered.size(), stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rex_client: %s\n", e.what());
        return 1;
    }
}
