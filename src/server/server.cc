#include "server/server.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "base/logging.hh"
#include "base/strings.hh"
#include "engine/batch.hh"
#include "engine/faultinject.hh"

namespace rex::server {

namespace {

void
closeQuietly(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

/** One readiness event out of a Poller. */
struct PollerEvent {
    std::uint64_t id = 0;
    bool readable = false;
    bool writable = false;
};

/**
 * Readiness-notification backend. Level-triggered by contract: an fd
 * with unread input (or writable space while write interest is set)
 * reports ready on every wait() until the condition clears — the loop
 * relies on this to resume partial reads/writes without re-arming.
 */
class Poller
{
  public:
    virtual ~Poller() = default;
    virtual void add(int fd, std::uint64_t id, bool wantRead,
                     bool wantWrite) = 0;
    virtual void mod(int fd, std::uint64_t id, bool wantRead,
                     bool wantWrite) = 0;
    virtual void del(int fd) = 0;

    /** Wait up to @p timeoutMs; ready events are appended to @p out. */
    virtual void wait(std::vector<PollerEvent> &out, int timeoutMs) = 0;
};

namespace {

/** poll(2) fallback: portable, O(n) per wait. Used off-Linux and under
 *  REX_POLL=1 (which is how CI exercises this path on Linux). */
class PollPoller final : public Poller
{
  public:
    void
    add(int fd, std::uint64_t id, bool wantRead, bool wantWrite) override
    {
        _entries[fd] = {id, wantRead, wantWrite};
    }

    void
    mod(int fd, std::uint64_t id, bool wantRead, bool wantWrite) override
    {
        _entries[fd] = {id, wantRead, wantWrite};
    }

    void del(int fd) override { _entries.erase(fd); }

    void
    wait(std::vector<PollerEvent> &out, int timeoutMs) override
    {
        _fds.clear();
        _ids.clear();
        for (const auto &[fd, entry] : _entries) {
            struct pollfd pfd;
            pfd.fd = fd;
            pfd.events = static_cast<short>(
                (entry.wantRead ? POLLIN : 0) |
                (entry.wantWrite ? POLLOUT : 0));
            pfd.revents = 0;
            _fds.push_back(pfd);
            _ids.push_back(entry.id);
        }
        int ready = ::poll(_fds.data(),
                           static_cast<nfds_t>(_fds.size()), timeoutMs);
        if (ready <= 0)
            return;
        for (std::size_t i = 0; i < _fds.size(); ++i) {
            short revents = _fds[i].revents;
            if (revents == 0)
                continue;
            PollerEvent event;
            event.id = _ids[i];
            // Errors/hangups surface as readable: the next read()
            // reports the failure and the connection is closed there.
            event.readable =
                (revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) != 0;
            event.writable = (revents & (POLLOUT | POLLERR)) != 0;
            out.push_back(event);
        }
    }

  private:
    struct Entry {
        std::uint64_t id;
        bool wantRead;
        bool wantWrite;
    };
    std::unordered_map<int, Entry> _entries;
    std::vector<struct pollfd> _fds;
    std::vector<std::uint64_t> _ids;
};

#ifdef __linux__
/** epoll backend: O(ready) per wait, the c10k path. */
class EpollPoller final : public Poller
{
  public:
    EpollPoller()
    {
        _epfd = ::epoll_create1(EPOLL_CLOEXEC);
        if (_epfd < 0)
            fatal(std::string("epoll_create1: ") + std::strerror(errno));
        _events.resize(256);
    }

    ~EpollPoller() override { closeQuietly(_epfd); }

    void
    add(int fd, std::uint64_t id, bool wantRead, bool wantWrite) override
    {
        struct epoll_event event = make(id, wantRead, wantWrite);
        if (::epoll_ctl(_epfd, EPOLL_CTL_ADD, fd, &event) < 0)
            warn(std::string("epoll_ctl add: ") + std::strerror(errno));
    }

    void
    mod(int fd, std::uint64_t id, bool wantRead, bool wantWrite) override
    {
        struct epoll_event event = make(id, wantRead, wantWrite);
        if (::epoll_ctl(_epfd, EPOLL_CTL_MOD, fd, &event) < 0)
            warn(std::string("epoll_ctl mod: ") + std::strerror(errno));
    }

    void
    del(int fd) override
    {
        ::epoll_ctl(_epfd, EPOLL_CTL_DEL, fd, nullptr);
    }

    void
    wait(std::vector<PollerEvent> &out, int timeoutMs) override
    {
        int ready = ::epoll_wait(_epfd, _events.data(),
                                 static_cast<int>(_events.size()),
                                 timeoutMs);
        if (ready <= 0)
            return;
        for (int i = 0; i < ready; ++i) {
            PollerEvent event;
            event.id = _events[i].data.u64;
            std::uint32_t mask = _events[i].events;
            event.readable =
                (mask & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
            event.writable = (mask & (EPOLLOUT | EPOLLERR)) != 0;
            out.push_back(event);
        }
        if (ready == static_cast<int>(_events.size()))
            _events.resize(_events.size() * 2);
    }

  private:
    static struct epoll_event
    make(std::uint64_t id, bool wantRead, bool wantWrite)
    {
        struct epoll_event event;
        std::memset(&event, 0, sizeof(event));
        event.events = (wantRead ? EPOLLIN : 0u) |
                       (wantWrite ? EPOLLOUT : 0u);
        event.data.u64 = id;
        return event;
    }

    int _epfd = -1;
    std::vector<struct epoll_event> _events;
};
#endif // __linux__

std::unique_ptr<Poller>
makePoller()
{
#ifdef __linux__
    const char *force = std::getenv("REX_POLL");
    if (!force || force[0] == '\0' || force[0] == '0')
        return std::make_unique<EpollPoller>();
#endif
    return std::make_unique<PollPoller>();
}

/** Sentinel poller ids for the two non-connection fds. */
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = ~std::uint64_t(0);

} // namespace

RexServer::RexServer(engine::Engine &engine, ServerConfig config)
    : _engine(engine), _config(std::move(config)),
      _service(engine, _metrics, _config.maxDeadlineMs,
               _config.maxCandidates, _config.cacheMaxAgeSeconds)
{
    if (_config.threads == 0)
        _config.threads = 1;
    if (_config.maxConnections == 0)
        _config.maxConnections = 1;
    if (_config.idleTimeoutSeconds <= 0)
        _config.idleTimeoutSeconds = 60;
}

RexServer::~RexServer()
{
    requestDrain();
    join();
}

void
RexServer::start()
{
    rexAssert(!_started.load(), "RexServer::start() called twice");

    _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_listenFd < 0)
        fatal(std::string("socket: ") + std::strerror(errno));
    int yes = 1;
    ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(_config.port);
    if (::inet_pton(AF_INET, _config.host.c_str(), &addr.sin_addr) != 1) {
        closeQuietly(_listenFd);
        fatal("bad bind address '" + _config.host + "'");
    }
    if (::bind(_listenFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        std::string why = std::strerror(errno);
        closeQuietly(_listenFd);
        fatal(format("cannot bind %s:%u: %s", _config.host.c_str(),
                     _config.port, why.c_str()));
    }
    if (::listen(_listenFd, 1024) < 0) {
        std::string why = std::strerror(errno);
        closeQuietly(_listenFd);
        fatal("listen: " + why);
    }
    setNonBlocking(_listenFd);

    socklen_t len = sizeof(addr);
    ::getsockname(_listenFd, reinterpret_cast<struct sockaddr *>(&addr),
                  &len);
    _port = ntohs(addr.sin_port);

    int pipefds[2];
    if (::pipe(pipefds) < 0) {
        std::string why = std::strerror(errno);
        closeQuietly(_listenFd);
        fatal("pipe: " + why);
    }
    _wakeReadFd = pipefds[0];
    _wakeWriteFd = pipefds[1];
    setNonBlocking(_wakeReadFd);
    setNonBlocking(_wakeWriteFd);

    // Timer-wheel span must cover the longest deadline plus the +1
    // arming slack.
    std::size_t span = static_cast<std::size_t>(
        std::max(_config.limits.ioTimeoutSeconds,
                 _config.idleTimeoutSeconds));
    _wheel.assign(span + 3, {});
    _tick = 0;

    _poller = makePoller();
    _poller->add(_listenFd, kListenId, true, false);
    _poller->add(_wakeReadFd, kWakeId, true, false);

    _started.store(true);
    _loopThread = std::thread([this] { loop(); });
    for (unsigned i = 0; i < _config.threads; ++i)
        _handlers.emplace_back([this] { handlerLoop(); });
}

// ---------------------------------------------------------------------
// The event loop.

void
RexServer::loop()
{
    auto base = std::chrono::steady_clock::now();
    std::vector<PollerEvent> events;
    while (true) {
        auto elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - base)
                .count();
        std::uint64_t now_tick =
            static_cast<std::uint64_t>(elapsed_ms / 1000);
        if (now_tick > _tick)
            fireTimers(now_tick);

        // Sleep to the next 1s tick boundary (the wake pipe cuts this
        // short whenever a completion or drain request arrives).
        int timeout_ms =
            static_cast<int>(1000 - (elapsed_ms % 1000));
        if (timeout_ms <= 0)
            timeout_ms = 1;

        events.clear();
        _poller->wait(events, timeout_ms);

        bool woken = false;
        for (const PollerEvent &event : events) {
            if (event.id == kWakeId) {
                woken = true;
            } else if (event.id == kListenId) {
                acceptReady();
            } else {
                auto it = _conns.find(event.id);
                if (it != _conns.end()) {
                    handleConnEvent(*it->second, event.readable,
                                    event.writable);
                }
            }
        }
        if (woken) {
            char buf[256];
            while (::read(_wakeReadFd, buf, sizeof(buf)) > 0) {}
        }
        // Completions can be pending even without a wake byte (the
        // pipe write races the poll); always drain the queue.
        applyCompletions();

        if (_draining.load() && !_loopDraining)
            beginDrainOnLoop();
        if (_loopDraining && drainComplete())
            break;
    }

    closeQuietly(_listenFd);
}

void
RexServer::acceptReady()
{
    while (true) {
        int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == ECONNABORTED) {
                return;
            }
            warn(std::string("rexd accept: ") + std::strerror(errno));
            return;
        }
        if (engine::faultInjector().shouldFail(
                engine::FaultPoint::SockAccept)) {
            // Injected accept failure: drop the connection on the
            // floor, as a transient kernel error would. The peer sees
            // a reset and retries; the server must not hang or leak
            // the fd.
            ::close(fd);
            continue;
        }
        setNonBlocking(fd);
        int yes = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));

        auto conn = std::make_unique<Conn>();
        conn->id = _nextConnId++;
        conn->fd = fd;
        conn->parser = HttpParser(_config.limits);
        Conn &ref = *conn;
        _conns.emplace(ref.id, std::move(conn));
        ++_metrics.openConnections;
        _poller->add(fd, ref.id, true, false);

        if (_conns.size() > _config.maxConnections) {
            // Connection ceiling: shed before memory does. The 503 is
            // flushed and the socket lingers briefly so the reply is
            // not reset away under the peer's half-sent request.
            ++_metrics.queueRejected;
            HttpResponse response = HttpResponse::error(
                503, "connection ceiling reached; retry later");
            response.extraHeaders["Retry-After"] =
                std::to_string(_config.retryAfterSeconds);
            ref.noMoreReads = true;
            ref.closeAfterFlush = true;
            ref.lingering = true;
            ref.lingerSeconds = 1;
            enqueueSynthetic(ref, std::move(response), true);
            continue;
        }
        armDeadline(ref);
    }
}

void
RexServer::handleConnEvent(Conn &conn, bool readable, bool writable)
{
    std::uint64_t id = conn.id;
    if (writable) {
        writeOut(conn);
        if (_conns.find(id) == _conns.end())
            return;
    }
    if (readable) {
        readInto(conn);
        if (_conns.find(id) == _conns.end())
            return;
    }
    updateInterest(conn);
    armDeadline(conn);
}

void
RexServer::readInto(Conn &conn)
{
    // Captured before pumping: pumpRequests can closeConn and free the
    // Conn, after which even reading conn.id for the liveness probe is
    // a use-after-free.
    const std::uint64_t id = conn.id;
    char buf[16384];
    // Bounded reads per event so one fast peer cannot starve the rest;
    // level-triggered polling re-reports leftover input immediately.
    for (int round = 0; round < 8; ++round) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            closeConn(conn);
            return;
        }
        if (n == 0) {
            // Peer EOF. If nothing is pending, this is a clean
            // keep-alive close; otherwise finish writing what we owe
            // (the peer may have half-closed) unless we were only
            // draining its error-response body.
            if (conn.lingering) {
                closeConn(conn);
                return;
            }
            conn.noMoreReads = true;
            if (conn.slots.empty() && conn.out.size() == conn.outOff) {
                closeConn(conn);
                return;
            }
            conn.closeAfterFlush = true;
            return;
        }
        if (conn.lingering || conn.noMoreReads)
            continue;  // discard: we only owe the peer queued responses
        conn.parser.feed(buf, static_cast<std::size_t>(n));
        pumpRequests(conn);
        if (_conns.find(id) == _conns.end())
            return;
        if (conn.noMoreReads)
            return;
        if (n < static_cast<ssize_t>(sizeof(buf)))
            return;
    }
}

void
RexServer::pumpRequests(Conn &conn)
{
    const std::uint64_t id = conn.id;
    HttpRequest request;
    while (!conn.noMoreReads) {
        HttpParser::Result result = conn.parser.next(request);
        if (result == HttpParser::Result::Ready) {
            dispatch(conn, std::move(request));
            if (_conns.find(id) == _conns.end())
                return;  // dispatch flushed and the write side died
            request = HttpRequest();
            continue;
        }
        if (result == HttpParser::Result::Error) {
            // The byte stream is unframeable: answer once, stop
            // parsing, and linger-discard whatever the peer is still
            // sending (e.g. the rest of a 413 body) so closing does
            // not reset the error response away.
            HttpResponse response = HttpResponse::error(
                conn.parser.errorStatus(), conn.parser.errorMessage());
            conn.noMoreReads = true;
            conn.closeAfterFlush = true;
            conn.lingering = true;
            enqueueSynthetic(conn, std::move(response), true);
        }
        break;
    }
}

void
RexServer::dispatch(Conn &conn, HttpRequest request)
{
    std::uint64_t seq = conn.nextSeq++;
    conn.slots.emplace_back();
    ResponseSlot &slot = conn.slots.back();
    slot.keepAlive = request.keepAlive;
    if (!request.keepAlive)
        conn.noMoreReads = true;

    // Loop fast path 1: a conditional request whose validator still
    // matches — 304 straight from the ETag, engine untouched.
    HttpResponse fast;
    if (_service.tryNotModified(request, fast)) {
        slot.response = std::move(fast);
        slot.done = true;
        flushSlots(conn);
        return;
    }

    // Engine-bound work (POST /check, GET /check/<name>) goes to the
    // handler threads through the bounded job queue.
    const bool checkWork =
        CheckService::isCheckRoute(request) &&
        (request.path == "/check" ? request.method == "POST"
                                  : request.method == "GET");
    if (checkWork) {
        bool enqueued = false;
        {
            std::lock_guard<std::mutex> lock(_jobMutex);
            if (_jobs.size() < _config.maxQueue) {
                Job job;
                job.connId = conn.id;
                job.seq = seq;
                job.request = std::move(request);
                _jobs.push_back(std::move(job));
                _metrics.queueDepth.store(
                    static_cast<std::int64_t>(_jobs.size()));
                enqueued = true;
            }
        }
        if (enqueued) {
            _jobReady.notify_one();
            return;
        }
        // Backpressure: shed on the loop, never a handler thread. The
        // request was fully framed (its body is consumed), so the
        // connection stays usable for a retry.
        ++_metrics.queueRejected;
        HttpResponse response = HttpResponse::error(
            503, "request queue is full; retry later");
        response.extraHeaders["Retry-After"] =
            std::to_string(_config.retryAfterSeconds);
        _metrics.countResponse(503);
        slot.response = std::move(response);
        slot.done = true;
        flushSlots(conn);
        return;
    }

    // Loop fast path 2: /metrics, /healthz, 404s, 405s — no engine
    // work, answered inline.
    slot.response = _service.handle(request);
    slot.done = true;
    flushSlots(conn);
}

void
RexServer::enqueueSynthetic(Conn &conn, HttpResponse response,
                            bool countIt)
{
    if (countIt) {
        if (response.status == 408)
            ++_metrics.readTimeouts;
        _metrics.countResponse(response.status);
    }
    conn.nextSeq++;
    conn.slots.emplace_back();
    ResponseSlot &slot = conn.slots.back();
    slot.keepAlive = false;
    slot.response = std::move(response);
    slot.done = true;
    flushSlots(conn);
}

void
RexServer::flushSlots(Conn &conn)
{
    while (!conn.slots.empty() && conn.slots.front().done) {
        ResponseSlot &slot = conn.slots.front();
        if (engine::faultInjector().shouldFail(
                engine::FaultPoint::SockSend)) {
            // Injected send failure: the response is dropped and the
            // connection dies, as a peer reset would make it. The
            // client's retry policy recovers.
            closeConn(conn);
            return;
        }
        bool keep_alive = slot.keepAlive && !conn.closeAfterFlush &&
                          !_loopDraining;
        conn.out +=
            serializeHttpResponse(slot.response, keep_alive);
        if (!keep_alive)
            conn.closeAfterFlush = true;
        ++conn.requestsServed;
        ++conn.baseSeq;
        conn.slots.pop_front();
    }
    writeOut(conn);
}

void
RexServer::writeOut(Conn &conn)
{
    while (conn.outOff < conn.out.size()) {
        ssize_t n = ::send(conn.fd, conn.out.data() + conn.outOff,
                           conn.out.size() - conn.outOff, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            closeConn(conn);
            return;
        }
        conn.outOff += static_cast<std::size_t>(n);
    }
    if (conn.outOff == conn.out.size()) {
        conn.out.clear();
        conn.outOff = 0;
        if (conn.closeAfterFlush && conn.slots.empty() &&
                !conn.lingering) {
            closeConn(conn);
            return;
        }
    } else if (conn.outOff > 65536) {
        conn.out.erase(0, conn.outOff);
        conn.outOff = 0;
    }
    updateInterest(conn);
    armDeadline(conn);
}

void
RexServer::updateInterest(Conn &conn)
{
    bool want_read = (!conn.noMoreReads || conn.lingering);
    bool want_write = conn.outOff < conn.out.size();
    if (want_read != conn.wantRead || want_write != conn.wantWrite) {
        conn.wantRead = want_read;
        conn.wantWrite = want_write;
        _poller->mod(conn.fd, conn.id, want_read, want_write);
    }
}

void
RexServer::armDeadline(Conn &conn)
{
    Deadline kind;
    int seconds = _config.limits.ioTimeoutSeconds;
    if (conn.lingering) {
        kind = Deadline::Linger;
        seconds = conn.lingerSeconds > 0 ? conn.lingerSeconds : seconds;
    } else if (conn.outOff < conn.out.size()) {
        kind = Deadline::Write;
    } else if (!conn.slots.empty()) {
        // Engine work in flight: the per-job governor bounds it, not
        // the socket deadline.
        kind = Deadline::None;
    } else if (!conn.parser.idle()) {
        kind = Deadline::Read;
    } else {
        kind = Deadline::Idle;
        seconds = _config.idleTimeoutSeconds;
    }

    if (kind == Deadline::None) {
        conn.deadline = Deadline::None;
        return;
    }
    std::uint64_t when = _tick + static_cast<std::uint64_t>(seconds) + 1;
    if (conn.deadline == kind && conn.deadlineTick == when)
        return;  // still armed in the same wheel slot
    conn.deadline = kind;
    conn.deadlineTick = when;
    _wheel[when % _wheel.size()].push_back(conn.id);
}

void
RexServer::fireTimers(std::uint64_t upToTick)
{
    for (std::uint64_t tick = _tick + 1; tick <= upToTick; ++tick) {
        _tick = tick;
        std::vector<std::uint64_t> due;
        due.swap(_wheel[tick % _wheel.size()]);
        for (std::uint64_t id : due) {
            auto it = _conns.find(id);
            if (it == _conns.end())
                continue;
            Conn &conn = *it->second;
            if (conn.deadlineTick != tick ||
                    conn.deadline == Deadline::None) {
                continue;  // stale wheel entry (deadline was re-armed)
            }
            switch (conn.deadline) {
              case Deadline::Read: {
                // Slow loris: a partial request stalled past the read
                // deadline. Answer 408 and linger-drain like any other
                // refused request.
                HttpResponse response = HttpResponse::error(
                    408, "timed out reading the request");
                conn.noMoreReads = true;
                conn.closeAfterFlush = true;
                conn.lingering = true;
                enqueueSynthetic(conn, std::move(response), true);
                break;
              }
              case Deadline::Idle:
                ++_metrics.idleTimeouts;
                closeConn(conn);
                break;
              case Deadline::Write:
              case Deadline::Linger:
                closeConn(conn);
                break;
              case Deadline::None:
                break;
            }
        }
    }
}

void
RexServer::closeConn(Conn &conn)
{
    if (conn.requestsServed > 0)
        _metrics.keepaliveRequests.observe(conn.requestsServed);
    --_metrics.openConnections;
    _poller->del(conn.fd);
    ::close(conn.fd);
    _conns.erase(conn.id);  // invalidates `conn`
}

// ---------------------------------------------------------------------
// Handler threads and the completion queue.

void
RexServer::handlerLoop()
{
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(_jobMutex);
            _jobReady.wait(lock, [this] {
                return _stopHandlers || !_jobs.empty();
            });
            if (_jobs.empty()) {
                if (_stopHandlers)
                    return;
                continue;
            }
            job = std::move(_jobs.front());
            _jobs.pop_front();
            ++_jobsInFlight;
            _metrics.queueDepth.store(
                static_cast<std::int64_t>(_jobs.size()));
        }

        ++_metrics.inflight;
        Completion completion;
        completion.connId = job.connId;
        completion.seq = job.seq;
        completion.response = _service.handleCheckRoute(job.request);
        {
            std::lock_guard<std::mutex> lock(_completionMutex);
            _completions.push_back(std::move(completion));
        }
        char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(_wakeWriteFd, &byte, 1);
        --_metrics.inflight;
        {
            std::lock_guard<std::mutex> lock(_jobMutex);
            --_jobsInFlight;
        }
    }
}

void
RexServer::applyCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(_completionMutex);
        batch.swap(_completions);
    }
    if (batch.empty())
        return;

    std::vector<std::uint64_t> touched;
    for (Completion &completion : batch) {
        auto it = _conns.find(completion.connId);
        if (it == _conns.end())
            continue;  // connection died while the job ran
        Conn &conn = *it->second;
        if (completion.seq < conn.baseSeq)
            continue;
        std::size_t index =
            static_cast<std::size_t>(completion.seq - conn.baseSeq);
        if (index >= conn.slots.size())
            continue;
        ResponseSlot &slot = conn.slots[index];
        slot.response = std::move(completion.response);
        slot.done = true;
        touched.push_back(conn.id);
    }
    for (std::uint64_t id : touched) {
        auto it = _conns.find(id);
        if (it == _conns.end())
            continue;
        Conn &conn = *it->second;
        flushSlots(conn);
        if (_conns.find(id) == _conns.end())
            continue;
        updateInterest(conn);
        armDeadline(conn);
    }
}

// ---------------------------------------------------------------------
// Drain.

void
RexServer::beginDrainOnLoop()
{
    _loopDraining = true;
    // Stop accepting immediately: new connections are refused by the
    // kernel from here on.
    if (_listenFd >= 0) {
        _poller->del(_listenFd);
        closeQuietly(_listenFd);
    }
    // Every fully-received request (queued, in-flight, or framed in a
    // read buffer — pumpRequests dispatched those on arrival) is
    // served; nothing new is read.
    std::vector<std::uint64_t> ids;
    ids.reserve(_conns.size());
    for (const auto &[id, conn] : _conns)
        ids.push_back(id);
    for (std::uint64_t id : ids) {
        auto it = _conns.find(id);
        if (it == _conns.end())
            continue;
        Conn &conn = *it->second;
        conn.noMoreReads = true;
        conn.lingering = false;
        conn.closeAfterFlush = true;
        if (conn.slots.empty() && conn.out.size() == conn.outOff) {
            closeConn(conn);
            continue;
        }
        updateInterest(conn);
        armDeadline(conn);
    }
}

bool
RexServer::drainComplete()
{
    if (!_conns.empty())
        return false;
    std::lock_guard<std::mutex> lock(_jobMutex);
    if (!_jobs.empty() || _jobsInFlight != 0)
        return false;
    std::lock_guard<std::mutex> completion_lock(_completionMutex);
    return _completions.empty();
}

void
RexServer::requestDrain()
{
    if (!_started.load() || _draining.exchange(true))
        return;
    // Wake the loop (write side of the self-pipe); it observes
    // _draining and runs beginDrainOnLoop().
    if (_wakeWriteFd >= 0) {
        char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(_wakeWriteFd, &byte, 1);
    }
}

void
RexServer::join()
{
    if (!_started.load() || _joined.exchange(true))
        return;
    if (_loopThread.joinable())
        _loopThread.join();
    // The loop only exits once every job has completed, so the
    // handlers are idle by now; tell them to quit.
    {
        std::lock_guard<std::mutex> lock(_jobMutex);
        _stopHandlers = true;
    }
    _jobReady.notify_all();
    for (std::thread &handler : _handlers)
        if (handler.joinable())
            handler.join();
    closeQuietly(_wakeReadFd);
    closeQuietly(_wakeWriteFd);
    // Whatever the engine buffered for the results sink is on disk now.
    _engine.results().flush();
}

} // namespace rex::server
