/**
 * @file
 * The litmus-checking service behind rexd's routes.
 *
 * CheckService is pure request → response logic over an
 * engine::Engine: it owns no sockets, which is what lets the
 * integration test, the client's --direct mode, and the daemon share
 * one implementation of the wire protocol (docs/SERVER.md).
 *
 * Routes:
 *   POST /check          JSON {"test": <litmus text>, "variants": [...]}
 *                        → one JSONL verdict record per variant (the
 *                        docs/FORMAT.md schema), in request order.
 *                        {"resumable": true} asks for a rex-cont-v1
 *                        continuation token on budget-tripped records;
 *                        {"resume": "<token>"} resumes one (exactly one
 *                        variant; 400 malformed / 409 stale or
 *                        tampered — docs/DISTRIBUTED.md).
 *   GET  /check/<name>   cache/CDN-friendly alias: run the builtin
 *                        registry test <name> (query: variants=a,b or
 *                        "paper", deadline_ms=, max_candidates=).
 *   GET  /metrics        Prometheus text exposition.
 *   GET  /healthz        "ok".
 *
 * Verdicts are externally cacheable: every successful /check answer
 * carries a deterministic strong ETag — FNV-1a over the canonical
 * request key (litmus text, variant set, budgets) and the model
 * revision (engine::kModelRevision) — plus `Cache-Control: public,
 * max-age=...` when every verdict in the response is deterministic.
 * Responses containing ExhaustedBudget/CrashedWorker/Quarantined
 * records are `no-store`: they depend on machine state, not content.
 * `If-None-Match` hits answer 304 without touching the engine.
 *
 * Every /check runs through three measured pipeline stages feeding the
 * metrics histograms: parse (litmus text → test), check (per-variant
 * verdict on the shared engine, cache hits included), and enumerate
 * (the cache-miss subset of check: full staged enumeration).
 */

#ifndef REX_SERVER_SERVICE_HH
#define REX_SERVER_SERVICE_HH

#include <string>
#include <vector>

#include "server/http.hh"
#include "server/metrics.hh"

namespace rex::engine {
class Engine;
} // namespace rex::engine

namespace rex::server {

/** A validated /check request body. */
struct CheckRequest {
    /** The litmus test source (native or classic-herd format). */
    std::string testText;

    /** Variant names, resolved and validated ("base", "SEA_R", ...). */
    std::vector<std::string> variants;

    /**
     * Test hook: handler-thread sleep before checking, capped at
     * 2000 ms. Lets integration tests and CI pin a request in-flight
     * to drive the 503 backpressure and drain paths deterministically.
     */
    int sleepMs = 0;

    /** Per-request wall-clock budget in milliseconds; 0 = none. The
     *  server clamps it to its --max-deadline-ms cap. */
    std::int64_t deadlineMs = 0;

    /** Per-request candidate-count budget; 0 = none. Clamped to the
     *  server's --max-candidates cap. */
    std::int64_t maxCandidates = 0;

    /** Ask for a resumable check: a budget-tripped verdict record
     *  carries a rex-cont-v1 "continuation" member the client can POST
     *  back as "resume" to pick up where the budget tripped. */
    bool resumable = false;

    /** A continuation token from a prior ExhaustedBudget record.
     *  Requires exactly one variant (a token names one (test, variant)
     *  job); implies resumable. */
    std::string resume;

    /**
     * Parse and validate a JSON request body.
     * @throws FatalError with a client-facing diagnostic on malformed
     *         JSON, a missing/empty "test" member, or unknown variants.
     */
    static CheckRequest fromJson(const std::string &body);

    /**
     * The canonical content key this request hashes to for caching:
     * a length-prefixed serialisation of the litmus text, the variant
     * set, and the budgets. Two bodies differing only in JSON key
     * order or whitespace share a key; sleep_ms (a test hook that
     * cannot change verdicts) is excluded.
     */
    std::string canonicalKey() const;
};

/**
 * Deterministic strong ETag for a canonical request key under
 * @p revision: `"<16 hex digits>"`, quotes included as HTTP requires.
 * Bumping engine::kModelRevision changes every ETag, which is what
 * invalidates external caches when model semantics change.
 */
std::string verdictETag(const std::string &canonicalKey,
                        const std::string &revision);

/** A /check run's body plus its cacheability. */
struct CheckOutcome {
    /** Full JSONL response body, one record per variant. */
    std::string body;

    /** False when any record is ExhaustedBudget/CrashedWorker/
     *  Quarantined — those depend on machine state, not request
     *  content, so the response must not be cached. */
    bool deterministic = true;
};

/** The route handler shared by rexd, tests, and `rex_client --direct`. */
class CheckService
{
  public:
    /**
     * @param maxDeadlineMs  server-side wall-clock budget cap applied
     *        to every /check: requests asking for more (or for nothing)
     *        are clamped down to it; 0 = no server-imposed deadline.
     * @param maxCandidates  likewise for the candidate-count budget.
     * @param cacheMaxAgeSeconds  `max-age` advertised on deterministic
     *        200s (how long a CDN/reverse proxy may serve the verdict
     *        without revalidating).
     */
    CheckService(engine::Engine &engine, Metrics &metrics,
                 std::uint64_t maxDeadlineMs = 0,
                 std::uint64_t maxCandidates = 0,
                 int cacheMaxAgeSeconds = 86400)
        : _engine(engine), _metrics(metrics),
          _maxDeadlineMs(maxDeadlineMs), _maxCandidates(maxCandidates),
          _cacheMaxAgeSeconds(cacheMaxAgeSeconds)
    {}

    /** Dispatch one request; never throws (errors become responses). */
    HttpResponse handle(const HttpRequest &request);

    /**
     * Dispatch a check-route request (POST /check or GET /check/<name>,
     * wrong-method 405s included). Metrics are fully counted here.
     */
    HttpResponse handleCheckRoute(const HttpRequest &request);


    /**
     * Event-loop fast path: when @p request targets the check route
     * and carries an `If-None-Match` matching its ETag, fill @p out
     * with the 304 (metrics counted) and return true — the engine and
     * its pool are never touched. Any other request (no validator, a
     * stale one, or a body that fails validation) returns false and
     * takes the full handler-thread path.
     */
    bool tryNotModified(const HttpRequest &request, HttpResponse &out);

    /** True when @p request targets /check or /check/<name> (any
     *  method — 405s are the check route's too). */
    static bool isCheckRoute(const HttpRequest &request);

    Metrics &metrics() { return _metrics; }
    engine::Engine &engine() { return _engine; }

  private:
    HttpResponse handleCheck(const HttpRequest &request);

    /**
     * Run one validated check: the JSONL response body, one
     * docs/FORMAT.md verdict record per variant in request order, and
     * its cacheability.
     */
    CheckOutcome runCheck(const CheckRequest &request);

    /**
     * When @p request's `If-None-Match` matches @p etag, fill @p out
     * with the 304 (counted in http304) and return true.
     */
    bool notModified(const HttpRequest &request, const std::string &etag,
                     HttpResponse &out);

    /**
     * Build the validated CheckRequest for POST /check (JSON body) or
     * GET /check/<name> (registry lookup + query string). On failure
     * fills @p error (400 bad input / 404 unknown builtin) and returns
     * false.
     */
    bool buildCheckRequest(const HttpRequest &request, CheckRequest &out,
                           HttpResponse &error) const;

    engine::Engine &_engine;
    Metrics &_metrics;
    std::uint64_t _maxDeadlineMs = 0;
    std::uint64_t _maxCandidates = 0;
    int _cacheMaxAgeSeconds = 86400;
};

} // namespace rex::server

#endif // REX_SERVER_SERVICE_HH
