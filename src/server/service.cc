#include "server/service.hh"

#include <chrono>
#include <cinttypes>
#include <thread>

#include "axiomatic/params.hh"
#include "base/logging.hh"
#include "base/strings.hh"
#include "catc/cache.hh"
#include "engine/batch.hh"
#include "engine/cache.hh"
#include "engine/continuation.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "server/json.hh"

namespace rex::server {

namespace {

/** Microseconds elapsed since @p start. */
std::uint64_t
microsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/** The variant names /check accepts, in ModelParams::byName's terms. */
void
validateVariant(const std::string &name)
{
    // byName() itself fatal()s with a clear message on unknown names;
    // calling it here surfaces that as a 400 before any work is done.
    (void)ModelParams::byName(name);
}

} // namespace

CheckRequest
CheckRequest::fromJson(const std::string &body)
{
    JsonValue root = parseJson(body);
    if (!root.isObject())
        fatal("request body must be a JSON object");

    CheckRequest request;
    const JsonValue *test = root.find("test");
    if (!test || !test->isString() || test->string.empty())
        fatal("request needs a non-empty string member \"test\"");
    request.testText = test->string;

    if (const JsonValue *variants = root.find("variants")) {
        if (variants->isString()) {
            if (variants->string == "paper") {
                for (const ModelParams &params :
                         ModelParams::paperVariants()) {
                    request.variants.push_back(params.name());
                }
            } else {
                validateVariant(variants->string);
                request.variants.push_back(variants->string);
            }
        } else if (variants->isArray()) {
            if (variants->array.size() > 32)
                fatal("too many variants (max 32)");
            for (const JsonValue &entry : variants->array) {
                if (!entry.isString())
                    fatal("\"variants\" entries must be strings");
                validateVariant(entry.string);
                request.variants.push_back(entry.string);
            }
        } else {
            fatal("\"variants\" must be an array of names or \"paper\"");
        }
    }
    if (request.variants.empty())
        request.variants.push_back("base");

    if (const JsonValue *sleep = root.find("sleep_ms")) {
        if (!sleep->isInt() || sleep->integer < 0)
            fatal("\"sleep_ms\" must be a non-negative integer");
        request.sleepMs =
            static_cast<int>(std::min<std::int64_t>(sleep->integer, 2000));
    }

    if (const JsonValue *deadline = root.find("deadline_ms")) {
        if (!deadline->isInt() || deadline->integer < 0)
            fatal("\"deadline_ms\" must be a non-negative integer");
        request.deadlineMs = deadline->integer;
    }
    if (const JsonValue *ceiling = root.find("max_candidates")) {
        if (!ceiling->isInt() || ceiling->integer < 0)
            fatal("\"max_candidates\" must be a non-negative integer");
        request.maxCandidates = ceiling->integer;
    }

    if (const JsonValue *resumable = root.find("resumable")) {
        if (!resumable->isBool())
            fatal("\"resumable\" must be a boolean");
        request.resumable = resumable->boolean;
    }
    if (const JsonValue *resume = root.find("resume")) {
        if (!resume->isString() || resume->string.empty())
            fatal("\"resume\" must be a non-empty string token");
        request.resume = resume->string;
        request.resumable = true;
        if (request.variants.size() != 1) {
            fatal("\"resume\" requires exactly one variant (a "
                  "continuation token names one (test, variant) job)");
        }
    }

    for (const auto &[key, value] : root.object) {
        if (key != "test" && key != "variants" && key != "sleep_ms" &&
                key != "deadline_ms" && key != "max_candidates" &&
                key != "resumable" && key != "resume") {
            fatal("unknown request member \"" + key + "\"");
        }
    }
    return request;
}

std::string
CheckRequest::canonicalKey() const
{
    // Length-prefix every free-form field so no crafted litmus text can
    // collide with another request's serialisation.
    std::string key = format("check1:test:%zu:", testText.size());
    key += testText;
    key += format(":variants:%zu", variants.size());
    for (const std::string &variant : variants) {
        key += format(":%zu:", variant.size());
        key += variant;
    }
    key += format(":deadline_ms:%" PRId64 ":max_candidates:%" PRId64,
                  deadlineMs, maxCandidates);
    // Resumable requests answer with an extra member (the continuation
    // token) and resumed ones start from a different cursor: both must
    // key — and therefore ETag — differently from the plain form.
    if (resumable)
        key += ":resumable:1";
    if (!resume.empty()) {
        key += format(":resume:%zu:", resume.size());
        key += resume;
    }
    return key;
}

std::string
verdictETag(const std::string &canonicalKey, const std::string &revision)
{
    // FNV-1a, same function the verdict cache uses for content
    // addresses: cheap, stable across builds, collision-safe enough
    // for a cache validator.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](const std::string &text) {
        for (unsigned char c : text) {
            hash ^= c;
            hash *= 0x100000001b3ull;
        }
    };
    mix(revision);
    hash ^= 0xff;
    hash *= 0x100000001b3ull;
    mix(canonicalKey);
    return format("\"%016" PRIx64 "\"", hash);
}

namespace {

/** Clamp a requested per-job limit against a server cap (0 = none on
 *  either side): the effective limit is the tighter of the two. */
std::uint64_t
clampLimit(std::int64_t requested, std::uint64_t cap)
{
    std::uint64_t value = requested > 0
                              ? static_cast<std::uint64_t>(requested)
                              : 0;
    if (cap != 0 && (value == 0 || value > cap))
        value = cap;
    return value;
}

} // namespace

CheckOutcome
CheckService::runCheck(const CheckRequest &request)
{
    if (request.sleepMs > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(request.sleepMs));
    }

    // A malformed resume token is the client's fault (400) and is
    // rejected before any engine work.
    engine::ContinuationState resumeState;
    const bool haveResume = !request.resume.empty();
    if (haveResume) {
        std::string parseError;
        if (!engine::parseContinuation(request.resume, resumeState,
                                       &parseError)) {
            ++_metrics.continuationRefused;
            fatal("malformed continuation token: " + parseError);
        }
    }

    auto parse_start = std::chrono::steady_clock::now();
    LitmusTest test = parseLitmus(request.testText);
    _metrics.stageParse.observe(microsSince(parse_start));

    // A well-formed token from a different job — edited test source,
    // other variant, bumped model revision, or altered payload — fails
    // the fingerprint and is refused with 409: resuming it against
    // this job would silently merge counts from two different plans.
    // The fingerprint is no signature; the engine refuses a recomputed
    // one whose cursor does not fit the plan, also with 409.
    if (haveResume) {
        const std::string &fingerprintSource =
            test.sourceText.empty() ? test.name : test.sourceText;
        const std::uint64_t expected = engine::continuationFingerprint(
            fingerprintSource, request.variants[0],
            engine::kModelRevision, resumeState);
        if (expected != resumeState.fingerprint) {
            throw engine::ContinuationRefused(
                "continuation fingerprint mismatch: the token was "
                "issued for a different test source, variant, or "
                "model revision");
        }
    }

    engine::Budget budget;
    budget.deadlineMicros =
        clampLimit(request.deadlineMs, _maxDeadlineMs) * 1000;
    budget.maxCandidates =
        clampLimit(request.maxCandidates, _maxCandidates);

    CheckOutcome outcome;
    for (const std::string &variant : request.variants) {
        // Warm the variant's compiled program before the check is
        // timed; after the first request per variant this is a cache
        // hit, so the histogram isolates actual compile cost.
        auto compile_start = std::chrono::steady_clock::now();
        catc::stagedProgram(ModelParams::byName(variant));
        _metrics.stageCompile.observe(microsSince(compile_start));
        auto check_start = std::chrono::steady_clock::now();
        engine::JobRecord record = _engine.verdictRecord(
            test, ModelParams::byName(variant), budget, request.resumable,
            haveResume ? &resumeState : nullptr);
        if (haveResume)
            ++_metrics.resumeAccepted;
        if (!record.continuation.empty())
            ++_metrics.continuationsIssued;
        _metrics.stageCheck.observe(microsSince(check_start));
        if (!record.cacheHit)
            _metrics.stageEnumerate.observe(record.wallMicros);
        if (record.verdict == "Allowed") {
            ++_metrics.verdictsAllowed;
        } else if (record.verdict == "ExhaustedBudget") {
            ++_metrics.verdictsExhausted;
            _metrics.countBudgetTrip(record.exhaustedAxis);
            outcome.deterministic = false;
        } else if (record.verdict == "CrashedWorker") {
            ++_metrics.verdictsCrashed;
            outcome.deterministic = false;
        } else if (record.verdict == "Quarantined") {
            ++_metrics.verdictsQuarantined;
            outcome.deterministic = false;
        } else {
            ++_metrics.verdictsForbidden;
        }
        outcome.body += record.toJson();
        outcome.body += '\n';
    }
    return outcome;
}

namespace {

/** True when an If-None-Match header value matches @p etag (strong
 *  comparison; tolerates a comma-separated validator list and `*`). */
bool
etagMatches(const std::string &headerValue, const std::string &etag)
{
    if (trim(headerValue) == "*")
        return true;
    return headerValue.find(etag) != std::string::npos;
}

} // namespace

bool
CheckService::isCheckRoute(const HttpRequest &request)
{
    return request.path == "/check" ||
           startsWith(request.path, "/check/");
}

bool
CheckService::buildCheckRequest(const HttpRequest &request,
                                CheckRequest &out,
                                HttpResponse &error) const
{
    if (request.path == "/check") {
        try {
            out = CheckRequest::fromJson(request.body);
        } catch (const FatalError &err) {
            error = HttpResponse::error(400, err.what());
            return false;
        }
        return true;
    }

    // GET /check/<builtin>?variants=...&deadline_ms=...: the registry
    // test's exact source text, so the alias shares verdict-cache
    // entries and ETags with a POST of the same builtin.
    std::string name = urlDecode(request.path.substr(7));
    const TestRegistry &registry = TestRegistry::instance();
    if (name.empty() || !registry.has(name)) {
        error = HttpResponse::error(404, "no such builtin test: " + name);
        return false;
    }
    CheckRequest check;
    check.testText = registry.sourceText(name);
    try {
        for (const std::string &pair : split(request.query, '&')) {
            if (pair.empty())
                continue;
            auto equals = pair.find('=');
            std::string key = urlDecode(pair.substr(0, equals));
            std::string value =
                equals == std::string::npos
                    ? ""
                    : urlDecode(pair.substr(equals + 1));
            if (key == "variants") {
                if (value == "paper") {
                    for (const ModelParams &params :
                             ModelParams::paperVariants()) {
                        check.variants.push_back(params.name());
                    }
                } else {
                    for (const std::string &variant : split(value, ',')) {
                        (void)ModelParams::byName(variant);
                        check.variants.push_back(variant);
                    }
                }
                if (check.variants.size() > 32)
                    fatal("too many variants (max 32)");
            } else if (key == "deadline_ms" || key == "max_candidates") {
                std::int64_t parsed;
                if (!parseInteger(value, parsed) || parsed < 0) {
                    fatal("\"" + key +
                          "\" must be a non-negative integer");
                }
                (key == "deadline_ms" ? check.deadlineMs
                                      : check.maxCandidates) = parsed;
            } else {
                fatal("unknown query parameter \"" + key + "\"");
            }
        }
    } catch (const FatalError &err) {
        error = HttpResponse::error(400, err.what());
        return false;
    }
    if (check.variants.empty())
        check.variants.push_back("base");
    out = std::move(check);
    return true;
}

bool
CheckService::tryNotModified(const HttpRequest &request,
                             HttpResponse &out)
{
    if (!isCheckRoute(request))
        return false;
    if (request.path == "/check" ? request.method != "POST"
                                 : request.method != "GET")
        return false;
    auto validator = request.headers.find("if-none-match");
    if (validator == request.headers.end())
        return false;

    CheckRequest check;
    HttpResponse error;
    if (!buildCheckRequest(request, check, error))
        return false;  // the full handler path reproduces the error
    const std::string etag =
        verdictETag(check.canonicalKey(), engine::kModelRevision);
    if (!notModified(request, etag, out))
        return false;
    ++_metrics.requestsCheck;
    _metrics.countResponse(304);
    return true;
}

bool
CheckService::notModified(const HttpRequest &request,
                          const std::string &etag, HttpResponse &out)
{
    auto validator = request.headers.find("if-none-match");
    if (validator == request.headers.end() ||
            !etagMatches(validator->second, etag))
        return false;
    ++_metrics.http304;
    out = HttpResponse();
    out.status = 304;
    out.extraHeaders["ETag"] = etag;
    out.extraHeaders["Cache-Control"] =
        format("public, max-age=%d", _cacheMaxAgeSeconds);
    return true;
}

HttpResponse
CheckService::handleCheck(const HttpRequest &request)
{
    auto start = std::chrono::steady_clock::now();
    CheckRequest check;
    HttpResponse error;
    if (!buildCheckRequest(request, check, error))
        return error;

    std::string etag =
        verdictETag(check.canonicalKey(), engine::kModelRevision);

    // Conditional request whose validator still matches: answer from
    // the ETag alone. (The daemon short-circuits this on its event
    // loop via tryNotModified(); this covers --direct and tests that
    // call handle() straight.)
    HttpResponse response;
    if (notModified(request, etag, response))
        return response;

    try {
        CheckOutcome outcome = runCheck(check);
        response.body = std::move(outcome.body);
        response.contentType = "application/x-ndjson";
        response.extraHeaders["ETag"] = etag;
        response.extraHeaders["Cache-Control"] =
            outcome.deterministic
                ? format("public, max-age=%d", _cacheMaxAgeSeconds)
                : "no-store";
    } catch (const engine::ContinuationRefused &err) {
        // A stale or tampered continuation token: well-formed request,
        // conflicting state.
        ++_metrics.continuationRefused;
        return HttpResponse::error(409, err.what());
    } catch (const FatalError &err) {
        // Litmus parse/validation errors: the client's fault.
        return HttpResponse::error(400, err.what());
    } catch (const std::exception &err) {
        // Model/internal errors: ours.
        return HttpResponse::error(500, err.what());
    }
    _metrics.stageRequest.observe(microsSince(start));
    return response;
}

HttpResponse
CheckService::handleCheckRoute(const HttpRequest &request)
{
    HttpResponse response;
    const bool alias = request.path != "/check";
    const char *wanted = alias ? "GET" : "POST";
    if (request.method != wanted) {
        ++_metrics.requestsOther;
        response = HttpResponse::error(
            405, std::string(wanted) + " " + request.path);
        response.extraHeaders["Allow"] = wanted;
    } else {
        ++_metrics.requestsCheck;
        response = handleCheck(request);
    }
    _metrics.countResponse(response.status);
    return response;
}

HttpResponse
CheckService::handle(const HttpRequest &request)
{
    if (isCheckRoute(request))
        return handleCheckRoute(request);

    HttpResponse response;
    if (request.path == "/metrics") {
        if (request.method != "GET") {
            ++_metrics.requestsOther;
            response = HttpResponse::error(405, "GET /metrics");
            response.extraHeaders["Allow"] = "GET";
        } else {
            ++_metrics.requestsMetrics;
            response.body = _metrics.render(_engine);
            response.contentType =
                "text/plain; version=0.0.4; charset=utf-8";
        }
    } else if (request.path == "/healthz") {
        if (request.method != "GET") {
            ++_metrics.requestsOther;
            response = HttpResponse::error(405, "GET /healthz");
            response.extraHeaders["Allow"] = "GET";
        } else {
            ++_metrics.requestsHealth;
            response = HttpResponse::text(200, "ok\n");
        }
    } else {
        ++_metrics.requestsOther;
        response = HttpResponse::error(
            404, "no such route: " + request.path);
    }
    _metrics.countResponse(response.status);
    return response;
}

} // namespace rex::server
