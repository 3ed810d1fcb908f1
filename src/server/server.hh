/**
 * @file
 * rexd's connection machinery: a non-blocking event loop (epoll on
 * Linux, poll(2) elsewhere or under REX_POLL=1) serving HTTP/1.1
 * keep-alive with pipelining, plus N handler threads for engine work.
 *
 * One loop thread owns every connection: it accepts (until EAGAIN),
 * reads into per-connection buffers, frames requests incrementally
 * through HttpParser, and writes responses strictly in request order
 * (per-connection response slots keyed by a monotonic sequence number,
 * so pipelined requests answered out of order by the handlers still
 * flush in arrival order). Cheap routes — /metrics, /healthz, 404/405,
 * framing errors, backpressure 503s, and `If-None-Match` → 304 — are
 * answered on the loop; /check work is never run there. Cache-missing
 * checks go onto a bounded job queue drained by handler threads, which
 * run the shared CheckService (and therefore the one long-lived
 * Engine) and post each finished response back to the loop through a
 * wakeup-pipe completion queue.
 *
 * Deadlines hang off a one-second-granularity timer wheel with lazy
 * deletion: a connection stalled mid-request gets 408 (the slow-loris
 * path), an idle keep-alive connection past idleTimeoutSeconds is
 * closed (counted separately), a stalled write or error-response
 * linger-drain is bounded by ioTimeoutSeconds. A connection ceiling
 * (maxConnections) sheds with 503 + Retry-After before memory does,
 * and a full job queue sheds the same way — both on the loop, never
 * consuming a handler thread.
 *
 * Drain (requestDrain(), wired to SIGTERM/SIGINT by the rexd binary
 * via a self-pipe) closes the listener, stops reading new bytes, then
 * serves every fully-received request — queued, in-flight, or still
 * buffered on a connection — before join() returns; no framed request
 * is ever abandoned, so the JSONL results file ends on a complete
 * record.
 */

#ifndef REX_SERVER_SERVER_HH
#define REX_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/http.hh"
#include "server/metrics.hh"
#include "server/service.hh"

namespace rex::engine { class Engine; }

namespace rex::server {

class Poller;

/** rexd configuration. */
struct ServerConfig {
    /** Bind address. */
    std::string host = "127.0.0.1";

    /** Bind port; 0 asks the kernel for an ephemeral port (see
     *  RexServer::port() after start()). */
    std::uint16_t port = 0;

    /** Handler threads (engine work off the loop; each runs one
     *  request at a time). */
    unsigned threads = 4;

    /** Job-queue bound; /check requests beyond it get 503. */
    std::size_t maxQueue = 64;

    /** Retry-After seconds advertised with 503 responses. */
    int retryAfterSeconds = 1;

    /** HTTP parsing limits (also the read/write-stall deadline). */
    HttpLimits limits;

    /** Wall-clock budget cap applied to every /check (clamps the
     *  request's deadline_ms); 0 = no server-imposed deadline. */
    std::uint64_t maxDeadlineMs = 0;

    /** Candidate-count budget cap (clamps max_candidates); 0 = none. */
    std::uint64_t maxCandidates = 0;

    /** Open-connection ceiling; beyond it, accepts get 503 +
     *  Retry-After and close. */
    std::size_t maxConnections = 10240;

    /** Idle keep-alive connections past this are closed (no 408: an
     *  idle peer owes us nothing). */
    int idleTimeoutSeconds = 60;

    /** `Cache-Control: public, max-age=...` advertised on
     *  deterministic /check 200s. */
    int cacheMaxAgeSeconds = 86400;
};

/** The rexd daemon core (in-process embeddable, see tests). */
class RexServer
{
  public:
    /** @param engine the shared engine all requests check on. */
    RexServer(engine::Engine &engine, ServerConfig config);

    /** Drains and joins if still running. */
    ~RexServer();

    RexServer(const RexServer &) = delete;
    RexServer &operator=(const RexServer &) = delete;

    /**
     * Bind, listen, and spawn the loop + handler threads.
     * @throws FatalError when the address cannot be bound.
     */
    void start();

    /** The bound port (resolves config port 0 after start()). */
    std::uint16_t port() const { return _port; }

    /**
     * Begin graceful drain: stop accepting, serve every fully-received
     * request. Safe to call from any thread, and more than once.
     */
    void requestDrain();

    /** Wait for drain to complete and all threads to exit. */
    void join();

    /** True once requestDrain() has been observed. */
    bool draining() const { return _draining.load(); }

    Metrics &metrics() { return _metrics; }
    CheckService &service() { return _service; }
    const ServerConfig &config() const { return _config; }

  private:
    /** Why a connection deadline is armed. */
    enum class Deadline : std::uint8_t {
        None,    //!< engine work in flight; the governor bounds it
        Read,    //!< partial request buffered → 408 on expiry
        Idle,    //!< keep-alive between requests → close on expiry
        Write,   //!< response bytes stalled in our buffer → close
        Linger,  //!< discarding an error-response body → close
    };

    /** One in-order response slot (seq-keyed, deque position). */
    struct ResponseSlot {
        bool done = false;       //!< response complete, may flush
        bool keepAlive = true;   //!< the request's Connection wish
        HttpResponse response;
    };

    /** Per-connection state, owned by the loop thread. */
    struct Conn {
        std::uint64_t id = 0;
        int fd = -1;
        HttpParser parser;
        std::string out;             //!< serialized bytes to write
        std::size_t outOff = 0;
        std::uint64_t baseSeq = 0;   //!< seq of slots.front()
        std::uint64_t nextSeq = 0;
        std::deque<ResponseSlot> slots;
        std::uint64_t requestsServed = 0;
        bool noMoreReads = false;    //!< stop framing new requests
        bool closeAfterFlush = false;
        bool lingering = false;      //!< discarding an unread body
        int lingerSeconds = 0;       //!< 0 = limits.ioTimeoutSeconds
        bool wantRead = true;        //!< current poller interest
        bool wantWrite = false;
        Deadline deadline = Deadline::None;
        std::uint64_t deadlineTick = 0;
    };

    /** One /check dispatched to a handler thread. */
    struct Job {
        std::uint64_t connId = 0;
        std::uint64_t seq = 0;
        HttpRequest request;
    };

    /** One handler → loop message: a finished /check response. */
    struct Completion {
        std::uint64_t connId = 0;
        std::uint64_t seq = 0;
        HttpResponse response;
    };

    void loop();
    void handlerLoop();

    void acceptReady();
    void handleConnEvent(Conn &conn, bool readable, bool writable);
    void readInto(Conn &conn);
    void pumpRequests(Conn &conn);
    void dispatch(Conn &conn, HttpRequest request);
    void enqueueSynthetic(Conn &conn, HttpResponse response,
                          bool countIt);
    void flushSlots(Conn &conn);
    void writeOut(Conn &conn);
    void updateInterest(Conn &conn);
    void armDeadline(Conn &conn);
    void fireTimers(std::uint64_t upToTick);
    void closeConn(Conn &conn);
    void applyCompletions();
    void beginDrainOnLoop();
    bool drainComplete();

    engine::Engine &_engine;
    ServerConfig _config;
    Metrics _metrics;
    CheckService _service;

    int _listenFd = -1;
    int _wakeReadFd = -1;   //!< self-pipe: completions/drain wake the loop
    int _wakeWriteFd = -1;
    std::uint16_t _port = 0;

    std::unique_ptr<Poller> _poller;
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> _conns;
    std::uint64_t _nextConnId = 1;

    /** Timer wheel: slot = tick % size, entries are conn ids checked
     *  lazily against the conn's current (kind, tick) when fired. */
    std::vector<std::vector<std::uint64_t>> _wheel;
    std::uint64_t _tick = 0;

    std::thread _loopThread;
    std::vector<std::thread> _handlers;

    std::mutex _jobMutex;
    std::condition_variable _jobReady;
    std::deque<Job> _jobs;
    std::size_t _jobsInFlight = 0;  //!< guarded by _jobMutex
    bool _stopHandlers = false;     //!< guarded by _jobMutex

    std::mutex _completionMutex;
    std::vector<Completion> _completions;

    std::atomic<bool> _started{false};
    std::atomic<bool> _draining{false};
    std::atomic<bool> _joined{false};
    bool _loopDraining = false;  //!< loop-thread view of _draining
};

} // namespace rex::server

#endif // REX_SERVER_SERVER_HH
