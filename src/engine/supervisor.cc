#include "engine/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <sstream>

#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "axiomatic/checker.hh"
#include "axiomatic/params.hh"
#include "base/logging.hh"
#include "base/strings.hh"
#include "catc/cache.hh"
#include "engine/faultinject.hh"
#include "litmus/parser.hh"

namespace rex::engine {

namespace {

/** Upper bound on one IPC frame; a litmus source or a verdict payload
 *  is kilobytes, so anything near this is protocol corruption. */
constexpr std::size_t kMaxFrameBytes = std::size_t(1) << 26;

/** send() the whole buffer; MSG_NOSIGNAL so a dead peer surfaces as
 *  EPIPE, not a process-wide SIGPIPE (the harness does not ignore
 *  it the way rexd does). */
bool
sendAllFd(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** One length-prefixed frame: 4-byte big-endian length + payload. */
bool
sendFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    unsigned char header[4] = {
        static_cast<unsigned char>(len >> 24),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len),
    };
    return sendAllFd(fd, header, sizeof(header)) &&
           sendAllFd(fd, payload.data(), payload.size());
}

/** Blocking exact read (worker side); false on EOF or error. */
bool
recvExact(int fd, void *data, std::size_t len)
{
    char *p = static_cast<char *>(data);
    while (len > 0) {
        ssize_t n = ::read(fd, p, len);
        if (n == 0)
            return false;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Blocking frame read (worker side); false on EOF/error/oversize. */
bool
recvFrame(int fd, std::string &payload)
{
    unsigned char header[4];
    if (!recvExact(fd, header, sizeof(header)))
        return false;
    const std::size_t len = (std::size_t(header[0]) << 24) |
                            (std::size_t(header[1]) << 16) |
                            (std::size_t(header[2]) << 8) |
                            std::size_t(header[3]);
    if (len > kMaxFrameBytes)
        return false;
    payload.resize(len);
    return len == 0 || recvExact(fd, payload.data(), len);
}

enum class RecvStatus { Ok, Eof, Timeout, Error };

/**
 * Parent-side frame read with an optional hard deadline: poll()s so a
 * worker that stops answering — crashed (EOF) or wedged (timeout) — is
 * always distinguishable and always bounded.
 */
RecvStatus
recvFrameDeadline(int fd,
                  const std::chrono::steady_clock::time_point *deadline,
                  std::string &payload)
{
    std::string buffer;
    std::optional<std::size_t> frameLen;
    for (;;) {
        if (!frameLen && buffer.size() >= 4) {
            const unsigned char *h =
                reinterpret_cast<const unsigned char *>(buffer.data());
            const std::size_t len = (std::size_t(h[0]) << 24) |
                                    (std::size_t(h[1]) << 16) |
                                    (std::size_t(h[2]) << 8) |
                                    std::size_t(h[3]);
            if (len > kMaxFrameBytes)
                return RecvStatus::Error;
            frameLen = len;
        }
        if (frameLen && buffer.size() >= 4 + *frameLen) {
            payload = buffer.substr(4, *frameLen);
            return RecvStatus::Ok;
        }

        int timeoutMs = -1;
        if (deadline) {
            const auto remain =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *deadline - std::chrono::steady_clock::now())
                    .count();
            if (remain <= 0)
                return RecvStatus::Timeout;
            timeoutMs = static_cast<int>(
                std::min<long long>(remain, 3600 * 1000));
        }
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int ready = ::poll(&pfd, 1, timeoutMs);
        if (ready == 0)
            return RecvStatus::Timeout;
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return RecvStatus::Error;
        }
        char chunk[65536];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n == 0)
            return RecvStatus::Eof;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return RecvStatus::Error;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

/** One dispatched job, as framed over the socketpair. */
struct Job {
    std::string variant;
    Budget budget;
    bool crash = false;  //!< injected worker-crash decision
    bool hang = false;   //!< injected worker-hang decision
    std::string testText;
};

std::string
buildJobPayload(const std::string &sourceText, const std::string &variant,
                const Budget &budget, bool crash, bool hang)
{
    std::string payload = "rex-job-v1\n";
    payload += "variant " + variant + "\n";
    payload += format("deadline_us %" PRIu64 "\n", budget.deadlineMicros);
    payload += format("max_candidates %" PRIu64 "\n",
                      budget.maxCandidates);
    payload += format("max_heap %" PRIu64 "\n", budget.maxHeapBytes);
    payload += format("crash %d\n", crash ? 1 : 0);
    payload += format("hang %d\n", hang ? 1 : 0);
    payload += format("testlen %zu\n", sourceText.size());
    payload += sourceText;
    return payload;
}

bool
parseJobPayload(const std::string &payload, Job &job)
{
    std::size_t pos = 0;
    auto nextLine = [&](std::string &line) {
        const std::size_t eol = payload.find('\n', pos);
        if (eol == std::string::npos)
            return false;
        line = payload.substr(pos, eol - pos);
        pos = eol + 1;
        return true;
    };
    std::string line;
    if (!nextLine(line) || line != "rex-job-v1")
        return false;
    while (nextLine(line)) {
        const std::size_t space = line.find(' ');
        const std::string field = line.substr(0, space);
        const std::string rest =
            space == std::string::npos ? "" : line.substr(space + 1);
        if (field == "variant") {
            job.variant = rest;
        } else if (field == "deadline_us") {
            job.budget.deadlineMicros =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "max_candidates") {
            job.budget.maxCandidates =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "max_heap") {
            job.budget.maxHeapBytes =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "crash") {
            job.crash = rest == "1";
        } else if (field == "hang") {
            job.hang = rest == "1";
        } else if (field == "testlen") {
            const std::size_t len =
                std::strtoull(rest.c_str(), nullptr, 10);
            if (payload.size() - pos != len)
                return false;
            job.testText = payload.substr(pos, len);
            return true;
        } else {
            return false;
        }
    }
    return false;
}

/** A worker's answer: a completed/exhausted verdict or a job error. */
struct WireResponse {
    enum class Status { Ok, Exhausted, Error } status = Status::Error;
    CachedVerdict verdict;
    std::string axis;
    std::string stage;
    std::string error;
};

std::string
buildResponsePayload(const WireResponse &response)
{
    std::string payload = "rex-verdict-ipc-v1\n";
    const char *status =
        response.status == WireResponse::Status::Ok
            ? "ok"
            : response.status == WireResponse::Status::Exhausted
                  ? "exhausted"
                  : "error";
    payload += format("status %s\n", status);
    const CachedVerdict &v = response.verdict;
    payload += format("observable %d\n", v.observable ? 1 : 0);
    payload += format("candidates %" PRIu64 "\n", v.candidates);
    payload += format("consistent %" PRIu64 "\n", v.consistent);
    payload += format("witnesses %" PRIu64 "\n", v.witnesses);
    payload += format("cu %" PRIu64 "\n", v.constrainedUnpredictable);
    payload += format("unknown %" PRIu64 "\n", v.unknownSideEffects);
    if (!v.forbiddingAxiom.empty())
        payload += "axiom " + v.forbiddingAxiom + "\n";
    if (!v.forbiddingCycle.empty()) {
        payload += "cycle";
        for (EventId id : v.forbiddingCycle)
            payload += " " + std::to_string(id);
        payload += "\n";
    }
    if (!response.axis.empty())
        payload += "axis " + response.axis + "\n";
    if (!response.stage.empty())
        payload += "stage " + response.stage + "\n";
    if (!response.error.empty())
        payload += "error " + response.error + "\n";
    return payload;
}

bool
parseResponsePayload(const std::string &payload, WireResponse &response)
{
    std::istringstream stream(payload);
    std::string line;
    if (!std::getline(stream, line) || line != "rex-verdict-ipc-v1")
        return false;
    bool haveStatus = false;
    while (std::getline(stream, line)) {
        const std::size_t space = line.find(' ');
        const std::string field = line.substr(0, space);
        const std::string rest =
            space == std::string::npos ? "" : line.substr(space + 1);
        if (field == "status") {
            haveStatus = true;
            if (rest == "ok")
                response.status = WireResponse::Status::Ok;
            else if (rest == "exhausted")
                response.status = WireResponse::Status::Exhausted;
            else if (rest == "error")
                response.status = WireResponse::Status::Error;
            else
                return false;
        } else if (field == "observable") {
            response.verdict.observable = rest == "1";
        } else if (field == "candidates") {
            response.verdict.candidates =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "consistent") {
            response.verdict.consistent =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "witnesses") {
            response.verdict.witnesses =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "cu") {
            response.verdict.constrainedUnpredictable =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "unknown") {
            response.verdict.unknownSideEffects =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "axiom") {
            response.verdict.forbiddingAxiom = rest;
        } else if (field == "cycle") {
            for (const std::string &id : splitWhitespace(rest)) {
                response.verdict.forbiddingCycle.push_back(
                    static_cast<EventId>(
                        std::strtoul(id.c_str(), nullptr, 10)));
            }
        } else if (field == "axis") {
            response.axis = rest;
        } else if (field == "stage") {
            response.stage = rest;
        } else if (field == "error") {
            response.error = rest;
        } else {
            return false;
        }
    }
    return haveStatus;
}

std::string
errorResponse(const std::string &message)
{
    WireResponse response;
    response.status = WireResponse::Status::Error;
    // The payload is line-oriented; keep the message to one line.
    std::string flat = message;
    for (char &c : flat)
        if (c == '\n' || c == '\r')
            c = ' ';
    response.error = flat.empty() ? "unspecified" : flat;
    return buildResponsePayload(response);
}

/** Name a waitpid() status: the fatal signal, or "exit:N". */
std::string
describeWaitStatus(int status)
{
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        if (const char *name = fatalSignalName(sig))
            return name;
        return format("SIG%d", sig);
    }
    if (WIFEXITED(status))
        return format("exit:%d", WEXITSTATUS(status));
    return "unknown";
}

/** Blocking reap of @p pid; returns the described status. */
std::string
reapWorker(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return describeWaitStatus(status);
}

/**
 * The worker process: a single-threaded loop over job frames. Never
 * returns; _exit()s (no atexit handlers — the parent's are not ours to
 * run) when the parent closes the socket.
 */
[[noreturn]] void
workerLoop(int fd, CrashContext *status)
{
    // The parent's signal dispositions are not ours: rexd routes
    // SIGTERM/SIGINT into its drain pipe, which must not swallow a
    // worker kill.
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGPIPE, SIG_IGN);
    installCrashAttributionHandler();
    // All attribution — including the checker's stage notes — lands in
    // the shared status page, where the supervisor reads it post-mortem.
    setCrashContextTarget(status);

    std::string payload;
    while (recvFrame(fd, payload)) {
        Job job;
        if (!parseJobPayload(payload, job)) {
            if (!sendFrame(fd, errorResponse("malformed job frame")))
                break;
            continue;
        }
        if (job.crash) {
            // Injected worker-crash: die exactly like a real bug would,
            // through the attribution handler and then the default
            // disposition, so WTERMSIG names SIGSEGV.
            std::raise(SIGSEGV);
        }
        if (job.hang) {
            // Injected worker-hang: spin without ever polling a token —
            // only the supervisor's SIGKILL ends this.
            for (volatile std::uint64_t spin = 0;;)
                spin = spin + 1;
        }

        std::string reply;
        try {
            LitmusTest test = parseLitmus(job.testText);
            const ModelParams params = ModelParams::byName(job.variant);
            crashContextSetJob(test.name.c_str(), job.variant.c_str());
            // Always governed: an unlimited Governor only counts (the
            // live pointer feeds the shared progress counter), so the
            // verdict is identical to an ungoverned in-process check.
            Governor governor(job.budget, nullptr, &status->candidates);
            const CheckResult result =
                checkTest(test, params, /*stop_at_first=*/true,
                          /*capture_witness=*/false, nullptr, &governor);
            WireResponse response;
            if (result.complete()) {
                response.status = WireResponse::Status::Ok;
            } else {
                response.status = WireResponse::Status::Exhausted;
                response.axis = result.exhaustedAxis;
                response.stage = governor.stageReached();
            }
            response.verdict = CachedVerdict::fromResult(result);
            reply = buildResponsePayload(response);
        } catch (const std::exception &err) {
            reply = errorResponse(err.what());
        }
        crashContextClearJob();
        if (!sendFrame(fd, reply))
            break;
    }
    _exit(0);
}

/** Prefill @p page with the job about to be dispatched, so a crash
 *  before the worker's own bookkeeping still attributes correctly. */
void
prefillStatusPage(CrashContext *page, const std::string &test,
                  const std::string &variant)
{
    CrashContext *previous = setCrashContextTarget(page);
    crashContextSetJob(test.c_str(), variant.c_str());
    setCrashContextTarget(previous);
}

} // namespace

Supervisor::Supervisor(SupervisorConfig config) : _config(config)
{
    if (_config.workers == 0)
        _config.workers = 1;
    void *pages = ::mmap(nullptr,
                         sizeof(CrashContext) * _config.workers,
                         PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED)
        fatal("supervisor: cannot map worker status pages");
    _statusPages = static_cast<CrashContext *>(pages);
    _slots.resize(_config.workers);
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (std::size_t i = 0; i < _slots.size(); ++i) {
            _slots[i].status = new (&_statusPages[i]) CrashContext();
            spawnSlotLocked(i);
        }
    }
    _monitor = std::thread([this] { monitorLoop(); });
}

Supervisor::~Supervisor()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
        // Closing an idle worker's socket is its shutdown signal: its
        // blocking read returns EOF and it _exit(0)s.
        for (Slot &slot : _slots) {
            if (slot.fd >= 0 && !slot.busy) {
                ::close(slot.fd);
                slot.fd = -1;
            }
        }
    }
    _slotFree.notify_all();
    _monitorWake.notify_all();
    if (_monitor.joinable())
        _monitor.join();

    for (Slot &slot : _slots) {
        if (!slot.alive || slot.pid <= 0)
            continue;
        // Graceful exit first; SIGKILL any straggler (a worker wedged
        // mid-check when the supervisor dies — callers should have
        // drained, but shutdown must still terminate).
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(2);
        int status = 0;
        pid_t reaped = 0;
        while ((reaped = ::waitpid(slot.pid, &status, WNOHANG)) == 0 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (reaped == 0) {
            ::kill(slot.pid, SIGKILL);
            while (::waitpid(slot.pid, &status, 0) < 0 &&
                   errno == EINTR) {
            }
        }
        if (slot.fd >= 0)
            ::close(slot.fd);
    }
    ::munmap(_statusPages, sizeof(CrashContext) * _config.workers);
}

void
Supervisor::spawnSlotLocked(std::size_t index)
{
    Slot &slot = _slots[index];
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
        warn(std::string("supervisor: socketpair: ") +
             std::strerror(errno));
        slot.respawnAt = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(
                             _config.respawnBackoffMaxMs);
        return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        warn(std::string("supervisor: fork: ") + std::strerror(errno));
        ::close(fds[0]);
        ::close(fds[1]);
        slot.respawnAt = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(
                             _config.respawnBackoffMaxMs);
        return;
    }
    if (pid == 0) {
        // Child. Drop every descriptor inherited across the fork except
        // stdio and our own job socket. Respawns fork from a live
        // daemon, so the inherited set includes sibling sockets, the
        // listener, and accepted connections mid-response — a worker
        // holding a copy of any of those keeps the peer from ever
        // seeing EOF. Only close()/dup2() here: the parent is
        // multithreaded, so anything that can allocate may deadlock.
        int job = fds[1];
        if (job != 3) {
            ::dup2(job, 3);
            job = 3;
        }
#if defined(__linux__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 34)
        ::close_range(4, ~0u, 0);
#else
        for (int fd = 4; fd < 4096; ++fd)
            ::close(fd);
#endif
        workerLoop(job, slot.status);
    }
    ::close(fds[1]);
    slot.pid = pid;
    slot.fd = fds[0];
    slot.alive = true;
    slot.busy = false;
}

void
Supervisor::retireSlotLocked(std::size_t index, const std::string &)
{
    Slot &slot = _slots[index];
    if (slot.fd >= 0) {
        ::close(slot.fd);
        slot.fd = -1;
    }
    slot.pid = -1;
    slot.alive = false;
    slot.busy = false;
    ++slot.consecutiveCrashes;
    // Capped exponential backoff before the respawn: one crash costs
    // almost nothing, a crash loop stops burning a core on forks.
    std::uint64_t backoff = _config.respawnBackoffMs;
    for (unsigned i = 1; i < slot.consecutiveCrashes &&
                         backoff < _config.respawnBackoffMaxMs;
         ++i) {
        backoff *= 2;
    }
    backoff = std::min(backoff, _config.respawnBackoffMaxMs);
    slot.respawnAt = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(backoff);
    _monitorWake.notify_all();
}

void
Supervisor::countCrash(const std::string &signal)
{
    _crashes.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(_crashMutex);
    ++_crashesBySignal[signal];
}

std::uint64_t
Supervisor::chargeLedger(const std::string &ledgerKey,
                         const std::string &signal)
{
    if (ledgerKey.empty())
        return 0;
    std::lock_guard<std::mutex> lock(_ledgerMutex);
    LedgerEntry &entry = _ledger[ledgerKey];
    ++entry.crashes;
    entry.lastSignal = signal;
    entry.lastTouch = ++_ledgerSeq;

    // LRU bound: a stream of distinct crashing keys must not grow the
    // ledger without limit. Linear scan is fine — eviction only runs
    // at the cap, and crashes are not a hot path.
    if (_config.ledgerMaxEntries != 0 &&
            _ledger.size() > _config.ledgerMaxEntries) {
        auto oldest = _ledger.end();
        for (auto it = _ledger.begin(); it != _ledger.end(); ++it) {
            if (it->first == ledgerKey)
                continue;
            if (oldest == _ledger.end() ||
                    it->second.lastTouch < oldest->second.lastTouch)
                oldest = it;
        }
        if (oldest != _ledger.end()) {
            _ledger.erase(oldest);
            _ledgerEvictions.fetch_add(1, std::memory_order_relaxed);
        }
    }
    return entry.crashes;
}

SupervisedOutcome
Supervisor::run(const std::string &sourceText, const std::string &testName,
                const std::string &variant, const std::string &ledgerKey,
                const Budget *budget)
{
    SupervisedOutcome outcome;

    // Quarantine gate: a key that keeps killing workers is answered
    // immediately, with no dispatch and no respawn churn.
    if (_config.crashQuarantine != 0 && !ledgerKey.empty()) {
        std::lock_guard<std::mutex> lock(_ledgerMutex);
        auto it = _ledger.find(ledgerKey);
        if (it != _ledger.end() &&
                it->second.crashes >= _config.crashQuarantine) {
            // A hot quarantined key stays resident under LRU pressure.
            it->second.lastTouch = ++_ledgerSeq;
            _quarantinedServed.fetch_add(1, std::memory_order_relaxed);
            outcome.kind = SupervisedOutcome::Kind::Quarantined;
            outcome.signal = it->second.lastSignal;
            outcome.crashes = it->second.crashes;
            return outcome;
        }
    }

    // Fault decisions are made here, in the parent, and shipped in the
    // frame — one deterministic decision sequence regardless of how
    // many workers have crashed and respawned (see faultinject.hh).
    const bool injectCrash =
        faultInjector().shouldFail(FaultPoint::WorkerCrash);
    const bool injectHang =
        faultInjector().shouldFail(FaultPoint::WorkerHang);

    // Acquire a live, idle slot (callers queue here under load).
    std::size_t index = 0;
    int fd = -1;
    pid_t pid = -1;
    CrashContext *status = nullptr;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _slotFree.wait(lock, [&] {
            if (_stopping)
                return true;
            for (std::size_t i = 0; i < _slots.size(); ++i) {
                if (_slots[i].alive && !_slots[i].busy) {
                    index = i;
                    return true;
                }
            }
            return false;
        });
        if (_stopping) {
            outcome.kind = SupervisedOutcome::Kind::Crashed;
            outcome.signal = "shutdown";
            return outcome;
        }
        Slot &slot = _slots[index];
        slot.busy = true;
        fd = slot.fd;
        pid = slot.pid;
        status = slot.status;
    }

    prefillStatusPage(status, testName, variant);

    const Budget effective = budget ? *budget : Budget{};

    // Compile and plan once in the parent: workers forked from now on
    // inherit the warm cache, and one forked before the warm-up
    // compiles on its first check.
    catc::planForCheck(ModelParams::byName(variant));

    auto finishCrash = [&](const std::string &signal) {
        outcome.kind = SupervisedOutcome::Kind::Crashed;
        outcome.signal = signal;
        outcome.stage = status->stage;
        outcome.verdict.candidates =
            status->candidates.load(std::memory_order_relaxed);
        outcome.crashes = chargeLedger(ledgerKey, signal);
        countCrash(signal);
        {
            std::lock_guard<std::mutex> lock(_mutex);
            retireSlotLocked(index, signal);
        }
        return outcome;
    };

    if (!sendFrame(fd, buildJobPayload(sourceText, variant, effective,
                                       injectCrash, injectHang))) {
        // The worker died idle before this job ever reached it (an
        // external kill): reap it here — we own the busy slot.
        return finishCrash(reapWorker(pid));
    }

    // The hard deadline: cooperative deadline + grace, after which the
    // worker is SIGKILLed. Without a cooperative deadline there is no
    // hard one (rexd's --max-deadline-ms cap guarantees one there).
    std::optional<std::chrono::steady_clock::time_point> hardDeadline;
    if (effective.deadlineMicros != 0) {
        hardDeadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(
                           effective.deadlineMicros) +
                       std::chrono::milliseconds(_config.killGraceMs);
    }

    std::string payload;
    const RecvStatus received = recvFrameDeadline(
        fd, hardDeadline ? &*hardDeadline : nullptr, payload);
    if (received == RecvStatus::Timeout) {
        ::kill(pid, SIGKILL);
        return finishCrash(reapWorker(pid));  // "SIGKILL"
    }
    if (received != RecvStatus::Ok)
        return finishCrash(reapWorker(pid));

    WireResponse response;
    if (!parseResponsePayload(payload, response)) {
        // Protocol corruption: the worker is not trustworthy anymore.
        ::kill(pid, SIGKILL);
        reapWorker(pid);
        return finishCrash("protocol-error");
    }

    if (response.status == WireResponse::Status::Error) {
        // The worker survived but refused the job (a parse/validation
        // error the parent did not hit — deterministic, so it counts
        // toward quarantine). The slot stays alive.
        warn("supervised worker error: " + response.error);
        outcome.kind = SupervisedOutcome::Kind::Crashed;
        outcome.signal = "worker-error";
        outcome.stage = status->stage;
        outcome.crashes = chargeLedger(ledgerKey, "worker-error");
        countCrash("worker-error");
    } else {
        outcome.kind = response.status == WireResponse::Status::Ok
                           ? SupervisedOutcome::Kind::Ok
                           : SupervisedOutcome::Kind::Exhausted;
        outcome.verdict = response.verdict;
        outcome.exhaustedAxis = response.axis;
        outcome.stage = response.stage;
    }

    {
        std::lock_guard<std::mutex> lock(_mutex);
        Slot &slot = _slots[index];
        slot.busy = false;
        slot.consecutiveCrashes = 0;
    }
    _slotFree.notify_one();
    return outcome;
}

void
Supervisor::monitorLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    while (!_stopping) {
        _monitorWake.wait_for(lock, std::chrono::milliseconds(20));
        if (_stopping)
            break;
        const auto now = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < _slots.size(); ++i) {
            Slot &slot = _slots[i];
            if (slot.alive && !slot.busy) {
                // Reap workers dying between jobs (external kill -9,
                // OOM): per-pid WNOHANG — never waitpid(-1), never a
                // SIGCHLD handler, so the embedding program's own
                // children are untouched. Busy slots belong to their
                // dispatcher, which sees the EOF and reaps itself.
                int status = 0;
                const pid_t reaped =
                    ::waitpid(slot.pid, &status, WNOHANG);
                if (reaped == slot.pid) {
                    countCrash(describeWaitStatus(status));
                    retireSlotLocked(i, "");
                }
            } else if (!slot.alive && slot.pid < 0 &&
                       now >= slot.respawnAt) {
                spawnSlotLocked(i);
                if (slot.alive) {
                    _respawns.fetch_add(1, std::memory_order_relaxed);
                    _slotFree.notify_all();
                }
            }
        }
    }
}

unsigned
Supervisor::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    unsigned live = 0;
    for (const Slot &slot : _slots)
        live += slot.alive ? 1 : 0;
    return live;
}

std::vector<std::pair<std::string, std::uint64_t>>
Supervisor::crashesBySignal() const
{
    std::lock_guard<std::mutex> lock(_crashMutex);
    return {_crashesBySignal.begin(), _crashesBySignal.end()};
}

std::uint64_t
Supervisor::ledgerEntries() const
{
    std::lock_guard<std::mutex> lock(_ledgerMutex);
    return _ledger.size();
}

std::uint64_t
Supervisor::quarantinedKeys() const
{
    if (_config.crashQuarantine == 0)
        return 0;
    std::lock_guard<std::mutex> lock(_ledgerMutex);
    std::uint64_t keys = 0;
    for (const auto &[key, entry] : _ledger) {
        (void)key;
        keys += entry.crashes >= _config.crashQuarantine ? 1 : 0;
    }
    return keys;
}

std::uint64_t
Supervisor::liveCandidates() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::uint64_t sum = 0;
    for (const Slot &slot : _slots) {
        if (slot.busy && slot.status) {
            sum += slot.status->candidates.load(
                std::memory_order_relaxed);
        }
    }
    return sum;
}

} // namespace rex::engine
