/**
 * @file
 * Blocking HTTP client for rexd — the wire protocol's only other C++
 * implementation (examples/rex_client.cpp and the integration test
 * both drive the daemon through this class, so a protocol change
 * breaks loudly in exactly two places: service.cc and here).
 *
 * By default each request opens a fresh connection and asks for
 * `Connection: close` (one-shot semantics, matching the pre-event-loop
 * server). setKeepAlive(true) pools one connection across requests and
 * frames responses by Content-Length; a pooled connection the server
 * has since dropped (idle timeout, restart) is detected on the next
 * request and replaced with one clean reconnect that does NOT consume
 * a retry attempt — only a failure on a fresh connection counts.
 *
 * Request bodies for /check are built by checkRequestJson(), a tiny
 * serialiser kept next to the client so the JSON the server parses and
 * the JSON clients emit cannot drift apart silently.
 */

#ifndef REX_SERVER_CLIENT_HH
#define REX_SERVER_CLIENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rex::server {

/** One response as seen by the client. */
struct ClientResponse {
    int status = 0;
    std::map<std::string, std::string> headers;  //!< keys lowercased
    std::string body;
};

/** Serialise a /check request body. @p sleepMs <= 0 omits the hook;
 *  @p deadlineMs / @p maxCandidates <= 0 omit the budget members;
 *  @p resumable asks for rex-cont-v1 continuation tokens on budget
 *  trips and @p resume (when non-empty) replays one. */
std::string checkRequestJson(const std::string &test_text,
                             const std::vector<std::string> &variants,
                             int sleepMs = 0,
                             std::int64_t deadlineMs = 0,
                             std::int64_t maxCandidates = 0,
                             bool resumable = false,
                             const std::string &resume = {});

/**
 * Client-side retry policy for transient failures: 503 shed responses
 * (honouring the server's Retry-After) and transport errors (connect
 * refused/reset, send/recv failures). HTTP errors other than 503 are
 * never retried — they are answers, not congestion.
 */
struct RetryPolicy {
    /** Total tries including the first; 1 = retries disabled. */
    int maxAttempts = 1;

    /** Backoff before retry k (1-based) is initialDelayMs * 2^(k-1),
     *  capped at maxDelayMs — unless the server's Retry-After asks for
     *  more, which wins. */
    int initialDelayMs = 100;
    int maxDelayMs = 2000;

    /** Give up when the next sleep would pass this budget (wall time
     *  across all attempts, 0 = unbounded). */
    int totalDeadlineMs = 15000;

    /** Seed for the deterministic +-25% backoff jitter. */
    std::uint64_t jitterSeed = 0;

    /**
     * Also retry 200 responses whose body carries a CrashedWorker
     * verdict (a supervised worker died mid-job — the respawned worker
     * may well succeed). Off by default: a crash is an answer, and
     * retrying it costs another worker. Quarantined verdicts are never
     * retried — the server has already decided to stop dispatching
     * that key, so a retry can only get the same answer back.
     */
    bool retryCrashed = false;

    /** Reuse one pooled connection across requests (HTTP keep-alive)
     *  instead of one connection per request. */
    bool keepAlive = false;
};

/**
 * Backoff before retry @p attempt (1-based): capped exponential with
 * deterministic jitter, overridden upward by @p retryAfterSeconds (the
 * server's Retry-After header; <= 0 = absent). Pure — exposed for
 * tests.
 */
int retryDelayMs(const RetryPolicy &policy, int attempt,
                 int retryAfterSeconds);

/** Default per-request socket timeout of a Client, in seconds. */
inline constexpr int kClientTimeoutSeconds = 30;

/** A blocking HTTP client (optionally keep-alive, see file header). */
class Client
{
  public:
    Client(std::string host, std::uint16_t port,
           int timeoutSeconds = kClientTimeoutSeconds)
        : _host(std::move(host)), _port(port),
          _timeoutSeconds(timeoutSeconds)
    {}

    /** Closes the pooled connection, if any. */
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Enable retries; the default policy (maxAttempts 1) disables
     *  them, preserving single-shot semantics. Policy keepAlive is
     *  adopted too (equivalent to setKeepAlive). */
    void setRetryPolicy(RetryPolicy policy);
    const RetryPolicy &retryPolicy() const { return _retry; }

    /** Pool one connection across requests (HTTP/1.1 keep-alive). */
    void setKeepAlive(bool keepAlive);
    bool keepAlive() const { return _keepAlive; }

    /**
     * POST @p body to @p path. Retries per the policy on 503 and on
     * transport errors.
     * @throws FatalError when the server stays unreachable or the
     *         response is unparseable (an HTTP error status is NOT a
     *         throw — callers check response.status).
     */
    ClientResponse
    post(const std::string &path, const std::string &body,
         const std::string &contentType = "application/json",
         const std::map<std::string, std::string> &extraHeaders = {});

    /** GET @p path. Throws and retries like post(). @p extraHeaders
     *  lets callers send conditionals (If-None-Match). */
    ClientResponse
    get(const std::string &path,
        const std::map<std::string, std::string> &extraHeaders = {});

    /**
     * Convenience: POST /check for @p test_text under @p variants and
     * return the response (body: one JSONL verdict record per variant
     * on success; {"error": ...} otherwise).
     */
    ClientResponse check(const std::string &test_text,
                         const std::vector<std::string> &variants,
                         int sleepMs = 0, std::int64_t deadlineMs = 0,
                         std::int64_t maxCandidates = 0);

    /** True when GET /healthz answers 200 (no throw on failure). */
    bool healthy();

  private:
    /** The one place requests are serialised. */
    std::string
    buildRequest(const char *method, const std::string &path,
                 const std::string &body, const std::string &contentType,
                 const std::map<std::string, std::string> &extraHeaders)
        const;

    ClientResponse roundTrip(const std::string &request);

    /** roundTrip plus the retry loop. */
    ClientResponse roundTripWithRetry(const std::string &request);

    int connectFd() const;
    void dropPooled();

    std::string _host;
    std::uint16_t _port;
    int _timeoutSeconds;
    RetryPolicy _retry;
    bool _keepAlive = false;
    int _fd = -1;  //!< pooled keep-alive connection (-1 = none)
};

} // namespace rex::server

#endif // REX_SERVER_CLIENT_HH
