/**
 * @file
 * Prometheus-style metrics for rexd.
 *
 * A fixed, hand-enumerated metric set (no generic registry): counters
 * for requests/responses/verdicts/queue rejections, gauges for queue
 * depth and in-flight requests, and one latency histogram per pipeline
 * stage (parse, enumerate, check, request). Everything is lock-free
 * atomics, safe to bump from any handler thread while /metrics renders.
 *
 * Cache hit/miss counts are not duplicated here — render() reads them
 * live from the engine's VerdictCache, which is the single source of
 * truth (the shared cache outlives and spans all requests).
 *
 * The exposition format is the Prometheus text format, metric names in
 * docs/SERVER.md.
 */

#ifndef REX_SERVER_METRICS_HH
#define REX_SERVER_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace rex::engine { class Engine; }

namespace rex::server {

/**
 * A fixed-bucket latency histogram (seconds). Buckets are cumulative
 * when rendered, as Prometheus requires; observations are recorded in
 * microseconds to avoid floating-point atomics.
 */
class LatencyHistogram
{
  public:
    /** Upper bounds in seconds (plus an implicit +Inf bucket). */
    static constexpr std::array<double, 10> kBuckets = {
        0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
        0.01,   0.05,    0.25,   1.0,
    };

    /** Record one observation of @p micros microseconds. */
    void observe(std::uint64_t micros);

    /** Render `name_bucket`/`name_sum`/`name_count` lines, with
     *  @p labels ("stage=\"parse\"") spliced into every line. */
    std::string render(const std::string &name,
                       const std::string &labels) const;

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets.size() + 1> _counts{};
    std::atomic<std::uint64_t> _sumMicros{0};
    std::atomic<std::uint64_t> _count{0};
};

/**
 * A fixed-bucket histogram over plain counts (requests served on one
 * keep-alive connection, say), rendered cumulatively like
 * LatencyHistogram but with integral bucket bounds.
 */
class CountHistogram
{
  public:
    /** Upper bounds (plus an implicit +Inf bucket). */
    static constexpr std::array<std::uint64_t, 9> kBuckets = {
        1, 2, 5, 10, 25, 50, 100, 250, 1000,
    };

    /** Record one observation of @p value. */
    void observe(std::uint64_t value);

    /** Render `name_bucket`/`name_sum`/`name_count` lines. */
    std::string render(const std::string &name) const;

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets.size() + 1> _counts{};
    std::atomic<std::uint64_t> _sum{0};
    std::atomic<std::uint64_t> _count{0};
};

/** The rexd metric set. */
struct Metrics {
    /** Requests accepted into the handler, by route. */
    std::atomic<std::uint64_t> requestsCheck{0};
    std::atomic<std::uint64_t> requestsMetrics{0};
    std::atomic<std::uint64_t> requestsHealth{0};
    std::atomic<std::uint64_t> requestsOther{0};

    /** Responses sent, by status class/code of interest. */
    std::atomic<std::uint64_t> responses200{0};
    std::atomic<std::uint64_t> responses304{0};
    std::atomic<std::uint64_t> responses400{0};
    std::atomic<std::uint64_t> responses404{0};
    std::atomic<std::uint64_t> responses405{0};
    std::atomic<std::uint64_t> responses408{0};
    std::atomic<std::uint64_t> responses409{0};
    std::atomic<std::uint64_t> responses413{0};
    std::atomic<std::uint64_t> responses431{0};
    std::atomic<std::uint64_t> responses500{0};
    std::atomic<std::uint64_t> responses503{0};

    /** Verdicts served (one per variant of every /check), by outcome. */
    std::atomic<std::uint64_t> verdictsAllowed{0};
    std::atomic<std::uint64_t> verdictsForbidden{0};
    std::atomic<std::uint64_t> verdictsExhausted{0};
    std::atomic<std::uint64_t> verdictsCrashed{0};
    std::atomic<std::uint64_t> verdictsQuarantined{0};

    /** Budget trips behind ExhaustedBudget verdicts, by axis. */
    std::atomic<std::uint64_t> budgetTripsDeadline{0};
    std::atomic<std::uint64_t> budgetTripsCandidates{0};
    std::atomic<std::uint64_t> budgetTripsMemory{0};
    std::atomic<std::uint64_t> budgetTripsCancelled{0};

    /** Connections rejected by backpressure (503 at accept). */
    std::atomic<std::uint64_t> queueRejected{0};

    /**
     * Per-socket read timeouts (the 408 path). Distinct from the 400
     * malformed-input counter so slow-loris peers and broken clients
     * are distinguishable on /metrics.
     */
    std::atomic<std::uint64_t> readTimeouts{0};

    /** Conditional requests answered 304 Not Modified on the event
     *  loop, without touching the engine or its pool. */
    std::atomic<std::uint64_t> http304{0};

    /** Keep-alive connections closed by the idle deadline (distinct
     *  from readTimeouts: an idle peer owes us nothing, so no 408). */
    std::atomic<std::uint64_t> idleTimeouts{0};

    /** Continuation lifecycle: rex-cont-v1 tokens issued on budget
     *  trips, resume tokens accepted, and tokens refused (malformed,
     *  stale, or tampered — the 400/409 paths). */
    std::atomic<std::uint64_t> continuationsIssued{0};
    std::atomic<std::uint64_t> resumeAccepted{0};
    std::atomic<std::uint64_t> continuationRefused{0};

    /** Current accept-queue depth (gauge, maintained by the server). */
    std::atomic<std::int64_t> queueDepth{0};

    /** Requests currently being handled (gauge). */
    std::atomic<std::int64_t> inflight{0};

    /** Connections currently open on the event loop (gauge). */
    std::atomic<std::int64_t> openConnections{0};

    /** Requests served per keep-alive connection, recorded when the
     *  connection closes. */
    CountHistogram keepaliveRequests;

    /** Per-stage latency: litmus parsing, model compilation (cache
     *  misses of the compiled path), cache-miss enumeration+check,
     *  per-variant verdict (incl. cache hits), whole request. */
    LatencyHistogram stageParse;
    LatencyHistogram stageCompile;
    LatencyHistogram stageEnumerate;
    LatencyHistogram stageCheck;
    LatencyHistogram stageRequest;

    /** Count one response with @p status. */
    void countResponse(int status);

    /** Count one budget trip on @p axis ("deadline", "candidates",
     *  "memory", "cancelled"). */
    void countBudgetTrip(const std::string &axis);

    /**
     * Render the Prometheus text exposition. Cache hits/misses/entry
     * counts and the engine worker count are read from @p engine.
     */
    std::string render(engine::Engine &engine) const;
};

} // namespace rex::server

#endif // REX_SERVER_METRICS_HH
