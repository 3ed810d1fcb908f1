#include "server/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/strings.hh"
#include "engine/results.hh"
#include "server/http.hh"

namespace rex::server {

std::string
checkRequestJson(const std::string &test_text,
                 const std::vector<std::string> &variants, int sleepMs,
                 std::int64_t deadlineMs, std::int64_t maxCandidates,
                 bool resumable, const std::string &resume)
{
    std::string body =
        "{\"test\":\"" + engine::jsonEscape(test_text) + "\"";
    if (!variants.empty()) {
        body += ",\"variants\":[";
        for (std::size_t i = 0; i < variants.size(); ++i) {
            if (i)
                body += ",";
            body += "\"" + engine::jsonEscape(variants[i]) + "\"";
        }
        body += "]";
    }
    if (sleepMs > 0)
        body += format(",\"sleep_ms\":%d", sleepMs);
    if (deadlineMs > 0) {
        body += format(",\"deadline_ms\":%lld",
                       static_cast<long long>(deadlineMs));
    }
    if (maxCandidates > 0) {
        body += format(",\"max_candidates\":%lld",
                       static_cast<long long>(maxCandidates));
    }
    if (resumable)
        body += ",\"resumable\":true";
    if (!resume.empty())
        body += ",\"resume\":\"" + engine::jsonEscape(resume) + "\"";
    body += "}";
    return body;
}

int
retryDelayMs(const RetryPolicy &policy, int attempt, int retryAfterSeconds)
{
    // Capped exponential: initialDelayMs * 2^(attempt-1).
    std::int64_t delay = policy.initialDelayMs;
    for (int i = 1; i < attempt && delay < policy.maxDelayMs; ++i)
        delay *= 2;
    delay = std::min<std::int64_t>(delay, policy.maxDelayMs);
    // Deterministic +-25% jitter (the attempt-th output of a splitmix64
    // stream seeded at jitterSeed), so synchronized clients fan out but
    // tests stay reproducible.
    const std::uint64_t z = splitmix64(
        policy.jitterSeed +
        static_cast<std::uint64_t>(attempt - 1) * kSplitmixGamma);
    const std::int64_t quarter = delay / 4;
    if (quarter > 0) {
        delay += static_cast<std::int64_t>(
                     z % (2 * static_cast<std::uint64_t>(quarter) + 1)) -
                 quarter;
    }
    // The server's Retry-After is a floor, never shortened by jitter.
    if (retryAfterSeconds > 0) {
        delay = std::max<std::int64_t>(
            delay, static_cast<std::int64_t>(retryAfterSeconds) * 1000);
    }
    return static_cast<int>(delay);
}

Client::~Client()
{
    dropPooled();
}

void
Client::setRetryPolicy(RetryPolicy policy)
{
    _retry = policy;
    setKeepAlive(policy.keepAlive);
}

void
Client::setKeepAlive(bool keepAlive)
{
    _keepAlive = keepAlive;
    if (!keepAlive)
        dropPooled();
}

void
Client::dropPooled()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

int
Client::connectFd() const
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal(std::string("client socket: ") + std::strerror(errno));

    if (_timeoutSeconds > 0) {
        struct timeval tv;
        tv.tv_sec = _timeoutSeconds;
        tv.tv_usec = 0;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    int yes = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(_port);
    if (::inet_pton(AF_INET, _host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        fatal("bad server address '" + _host + "'");
    }
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        std::string why = std::strerror(errno);
        ::close(fd);
        fatal(format("cannot connect to %s:%u: %s", _host.c_str(), _port,
                     why.c_str()));
    }
    return fd;
}

std::string
Client::buildRequest(
    const char *method, const std::string &path, const std::string &body,
    const std::string &contentType,
    const std::map<std::string, std::string> &extraHeaders) const
{
    std::string request =
        format("%s %s HTTP/1.1\r\n", method, path.c_str());
    request += format("Host: %s:%u\r\n", _host.c_str(), _port);
    for (const auto &[key, value] : extraHeaders)
        request += key + ": " + value + "\r\n";
    if (!body.empty() || std::strcmp(method, "POST") == 0) {
        request += "Content-Type: " + contentType + "\r\n";
        request += format("Content-Length: %zu\r\n", body.size());
    }
    request += _keepAlive ? "Connection: keep-alive\r\n\r\n"
                          : "Connection: close\r\n\r\n";
    request += body;
    return request;
}

namespace {

/** Read exactly @p n more bytes into @p out; false on EOF/error. */
bool
recvExact(int fd, std::string &out, std::size_t n, std::string &why)
{
    char chunk[4096];
    while (n > 0) {
        ssize_t got = ::recv(
            fd, chunk, std::min(n, sizeof(chunk)), 0);
        if (got == 0) {
            why = "connection closed mid-response";
            return false;
        }
        if (got < 0) {
            if (errno == EINTR)
                continue;
            why = (errno == EAGAIN || errno == EWOULDBLOCK)
                      ? "timed out waiting for response"
                      : std::strerror(errno);
            return false;
        }
        out.append(chunk, static_cast<std::size_t>(got));
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/**
 * Read one framed response off @p fd: headers, then Content-Length
 * body (304/204 are body-less). With no Content-Length and no
 * keep-alive the body runs to EOF, matching pre-keep-alive servers.
 * @return false with @p why set on transport failure (retryable);
 *         fatal()s on protocol violations (not retryable).
 */
bool
readResponse(int fd, ClientResponse &out, std::string &why)
{
    std::string raw;
    std::size_t header_end = std::string::npos;
    std::size_t body_start = 0;
    char chunk[4096];
    while (true) {
        std::size_t scan = raw.size() >= 3 ? raw.size() - 3 : 0;
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0) {
            why = raw.empty() ? "connection closed before response"
                              : "connection closed mid-response";
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            why = (errno == EAGAIN || errno == EWOULDBLOCK)
                      ? "timed out waiting for response"
                      : std::strerror(errno);
            return false;
        }
        raw.append(chunk, static_cast<std::size_t>(n));
        std::size_t crlf = raw.find("\r\n\r\n", scan);
        std::size_t lf = raw.find("\n\n", scan);
        header_end = std::min(crlf, lf);
        if (header_end != std::string::npos) {
            body_start = header_end + (header_end == crlf ? 4 : 2);
            break;
        }
        if (raw.size() > 256 * 1024)
            fatal("malformed response: no header terminator");
    }

    ClientResponse response;
    std::vector<std::string> lines =
        split(raw.substr(0, header_end), '\n');
    std::vector<std::string> status_parts =
        splitWhitespace(trim(lines.empty() ? "" : lines[0]));
    std::int64_t status = 0;
    if (status_parts.size() < 2 ||
            !startsWith(status_parts[0], "HTTP/") ||
            !parseInteger(status_parts[1], status)) {
        fatal("malformed response status line");
    }
    response.status = static_cast<int>(status);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::string line = trim(lines[i]);
        auto colon = line.find(':');
        if (line.empty() || colon == std::string::npos)
            continue;
        response.headers[toLower(trim(line.substr(0, colon)))] =
            trim(line.substr(colon + 1));
    }
    response.body = raw.substr(body_start);

    const bool bodyless =
        response.status == 204 || response.status == 304;
    auto length = response.headers.find("content-length");
    if (bodyless) {
        response.body.clear();
    } else if (length != response.headers.end()) {
        std::int64_t expected;
        if (!parseInteger(length->second, expected) || expected < 0)
            fatal("malformed Content-Length in response");
        if (response.body.size() <
                static_cast<std::size_t>(expected)) {
            if (!recvExact(fd, response.body,
                           static_cast<std::size_t>(expected) -
                               response.body.size(),
                           why)) {
                return false;
            }
        } else {
            // Keep-alive: anything past Content-Length belongs to the
            // next response; this client never pipelines, so it is a
            // protocol violation.
            if (response.body.size() >
                    static_cast<std::size_t>(expected)) {
                fatal(format(
                    "overlong response body: %zu of %lld bytes",
                    response.body.size(),
                    static_cast<long long>(expected)));
            }
        }
    } else {
        // No Content-Length: body runs to EOF (Connection: close
        // framing).
        while (true) {
            ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n == 0)
                break;
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                why = (errno == EAGAIN || errno == EWOULDBLOCK)
                          ? "timed out waiting for response"
                          : std::strerror(errno);
                return false;
            }
            response.body.append(chunk, static_cast<std::size_t>(n));
        }
    }
    out = std::move(response);
    return true;
}

} // namespace

ClientResponse
Client::roundTrip(const std::string &request)
{
    // A pooled connection may have been closed by the server (idle
    // timeout, restart) since the last response: that surfaces as a
    // send failure or EOF-before-status here, and earns exactly one
    // clean reconnect that does not consume a retry attempt. Fresh
    // connections fail for real.
    bool reused = _keepAlive && _fd >= 0;
    while (true) {
        if (_fd < 0)
            _fd = connectFd();
        std::string why;
        ClientResponse response;
        bool ok = sendAll(_fd, request.data(), request.size());
        if (!ok)
            why = "connection lost while sending request";
        else
            ok = readResponse(_fd, response, why);
        if (ok) {
            auto connection = response.headers.find("connection");
            bool server_closes =
                connection != response.headers.end() &&
                toLower(connection->second).find("close") !=
                    std::string::npos;
            if (!_keepAlive || server_closes)
                dropPooled();
            return response;
        }
        dropPooled();
        if (reused) {
            reused = false;
            continue;
        }
        fatal("client transport: " + why);
    }
}

ClientResponse
Client::roundTripWithRetry(const std::string &request)
{
    const auto start = std::chrono::steady_clock::now();
    const int attempts = std::max(1, _retry.maxAttempts);
    // True when sleeping `delay` more milliseconds would overrun the
    // total-attempt deadline — give up and surface the last failure.
    auto outOfBudget = [&](int delay) {
        if (_retry.totalDeadlineMs <= 0)
            return false;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        return elapsed + delay > _retry.totalDeadlineMs;
    };
    for (int attempt = 1;; ++attempt) {
        int delay = 0;
        try {
            ClientResponse response = roundTrip(request);
            // A 200 whose body reports a worker crash is retryable
            // when the policy opts in: the respawned worker gets a
            // fresh chance. Quarantined is final — the server will
            // answer the same without running anything, so retrying
            // only burns attempts (and the check below keeps a record
            // mentioning both from looping: Quarantined wins).
            const bool crashedBody =
                _retry.retryCrashed && response.status == 200 &&
                response.body.find("\"verdict\":\"CrashedWorker\"") !=
                    std::string::npos &&
                response.body.find("\"verdict\":\"Quarantined\"") ==
                    std::string::npos;
            if ((response.status != 503 && !crashedBody) ||
                    attempt == attempts) {
                return response;
            }
            // Shed by backpressure: honour Retry-After as a floor on
            // the backoff.
            int retryAfterSeconds = 0;
            auto header = response.headers.find("retry-after");
            std::int64_t parsed = 0;
            if (header != response.headers.end() &&
                    parseInteger(header->second, parsed)) {
                retryAfterSeconds = static_cast<int>(parsed);
            }
            delay = retryDelayMs(_retry, attempt, retryAfterSeconds);
            if (outOfBudget(delay))
                return response;
        } catch (const FatalError &) {
            // Transport failure (refused, reset, timed out): retryable.
            if (attempt == attempts)
                throw;
            delay = retryDelayMs(_retry, attempt, 0);
            if (outOfBudget(delay))
                throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
}

ClientResponse
Client::post(const std::string &path, const std::string &body,
             const std::string &contentType,
             const std::map<std::string, std::string> &extraHeaders)
{
    return roundTripWithRetry(
        buildRequest("POST", path, body, contentType, extraHeaders));
}

ClientResponse
Client::get(const std::string &path,
            const std::map<std::string, std::string> &extraHeaders)
{
    return roundTripWithRetry(
        buildRequest("GET", path, "", "application/json", extraHeaders));
}

ClientResponse
Client::check(const std::string &test_text,
              const std::vector<std::string> &variants, int sleepMs,
              std::int64_t deadlineMs, std::int64_t maxCandidates)
{
    return post("/check",
                checkRequestJson(test_text, variants, sleepMs,
                                 deadlineMs, maxCandidates));
}

bool
Client::healthy()
{
    try {
        return get("/healthz").status == 200;
    } catch (const FatalError &) {
        return false;
    }
}

} // namespace rex::server
