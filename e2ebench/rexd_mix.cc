/**
 * @file
 * rexd-mix: a fresh rexd per run (a fresh port, results path and
 * in-memory verdict cache), driven open loop at fixed arrival rates
 * over at most nproc keep-alive connections through server::Client.
 * Latency is timed from when each request was due.
 *
 * The daemon runs without --cache-dir: with it, every cold check waits
 * on five fsyncs, and on a shared disk their latency moves cold p50 by
 * 2x between runs. The durable store is timed on its own instead, as
 * engine.cache_store_us in the traced run.
 *
 * The request mix has three classes:
 *   cold        POST /check of a fresh rexgen test, "variants": "paper"
 *   hit         a repeat of a warmed test, answered from the verdict cache
 *   revalidate  a repeat carrying its ETag, answered 304 on the loop
 *
 * The nominal rate gives the latency metrics; a ladder of higher rates
 * finds the highest rate at which cold p99 stays within kColdLimitMs
 * with no growing backlog.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "engine/results.hh"
#include "gen/generator.hh"
#include "rex/rex.hh"
#include "server/client.hh"
#include "server/json.hh"

extern char **environ;

namespace rexbench {

using namespace rex;

namespace {

/** Mix shares, as BENCHMARK.json's rexd-mix entry states them. */
constexpr double kColdShare = 0.4;
constexpr double kHitShare = 0.3;

/** Nominal arrival rate and the rate ladder above it. */
constexpr double kNominalRps = 200;
constexpr double kLadderRatio = 1.6;
constexpr int kLadderSteps = 8;
constexpr int kBisections = 3;

/** Cold requests a ladder step sends at least. */
constexpr double kMinStepCold = 300;

/** Cold p99 latency limit for max_rate_rps. */
constexpr double kColdLimitMs = 500;

/** Seconds one ladder step runs at @p rate: a tenth of the nominal
 *  step, stretched to send at least kMinStepCold cold requests. */
double
ladderStepSeconds(double rate, double nominalSeconds)
{
    return std::max(nominalSeconds / 10, kMinStepCold / (kColdShare * rate));
}

/** First rexgen seed of the nominal step's cold-test universe. */
constexpr std::uint64_t kColdUniverseBase = 7'000'000'000ull;

/** Warmed tests that hit and revalidate requests repeat. */
constexpr std::size_t kPoolSize = 64;

/** Rexgen seed of every daemon's first check. */
constexpr std::uint64_t kSetupSeed = 0;

/** Inputs: the warm pool, the set-up test, then the cold tests. */
constexpr std::size_t kFirstCold = kPoolSize + 1;

/** 200 responses checked against in-process verdicts: the warm-up
 *  answers, then a sample of the nominal step. */
constexpr std::size_t kSampledRecords = 96;

enum Class : std::uint8_t { Cold, Hit, Revalidate };

/** Request status of a ladder request left unsent. */
constexpr int kUnsent = -1;

/** Lateness at which a ladder step stops sending. */
constexpr double kAbandonLateS = 1.0;

/** A generated test and its /check request body. */
struct Input {
    std::string source;
    std::string body;
};

Input
makeInput(std::uint64_t genSeed)
{
    Input input;
    input.source = gen::generate(genSeed, gen::GenConfig()).source;
    input.body = "{\"test\": \"" + engine::jsonEscape(input.source) +
                 "\", \"variants\": \"paper\"}";
    return input;
}

/** One rexd child process. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &dir) : _dir(dir)
    {
        std::filesystem::create_directories(dir);
        _args = {binary, "--port", "0", "--results", dir + "/results.jsonl"};
        int out[2];
        if (::pipe(out) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, out[1], 1);
        posix_spawn_file_actions_addclose(&actions, out[0]);
        posix_spawn_file_actions_addclose(&actions, out[1]);
        std::string log = dir + "/rexd.log";
        posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        std::vector<char *> argv;
        for (std::string &arg : _args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        int rc = ::posix_spawn(&_pid, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(out[1]);
        _out = out[0];
        if (rc != 0) {
            _pid = -1;
            throw std::runtime_error("cannot spawn " + binary);
        }
        _port = waitListening();
    }

    ~Daemon() { stop(); }

    std::uint16_t port() const { return _port; }
    pid_t pid() const { return _pid; }

    /** The flags after the binary, for the host stamp (the fresh run
     *  directory shown as <run-dir>). */
    std::string
    flags() const
    {
        std::string out;
        for (std::size_t i = 1; i < _args.size(); ++i) {
            std::string arg = _args[i];
            if (arg.rfind(_dir, 0) == 0)
                arg = "<run-dir>" + arg.substr(_dir.size());
            out += (i > 1 ? " " : "") + arg;
        }
        return out;
    }

    /** SIGTERM (graceful drain) and wait; SIGKILL after 20 s. */
    void
    stop()
    {
        if (_pid > 0) {
            ::kill(_pid, SIGTERM);
            int status = 0;
            for (int i = 0; i < 2000 && _pid > 0; ++i) {
                if (::waitpid(_pid, &status, WNOHANG) == _pid)
                    _pid = -1;
                else
                    ::usleep(10000);
            }
        }
        kill();
    }

    /** SIGKILL and wait: a throwaway daemon's drain would take about
     *  half a second of the run for nothing. */
    void
    kill()
    {
        if (_pid > 0) {
            ::kill(_pid, SIGKILL);
            int status = 0;
            ::waitpid(_pid, &status, 0);
            _pid = -1;
        }
        if (_out >= 0) {
            ::close(_out);
            _out = -1;
        }
    }

  private:
    /** Read stdout until "rexd listening on H:P"; the port. */
    std::uint16_t
    waitListening()
    {
        std::string text;
        Clock::time_point start = Clock::now();
        while (secondsSince(start) < 60) {
            pollfd pfd{_out, POLLIN, 0};
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            char buf[256];
            ssize_t n = ::read(_out, buf, sizeof(buf));
            if (n <= 0)
                break;
            text.append(buf, static_cast<std::size_t>(n));
            std::size_t at = text.find("rexd listening on ");
            std::size_t eol = at == std::string::npos
                                  ? std::string::npos
                                  : text.find(' ', at + 18);
            if (eol != std::string::npos) {
                std::string hostPort = text.substr(at + 18, eol - at - 18);
                return static_cast<std::uint16_t>(
                    std::stoul(hostPort.substr(hostPort.rfind(':') + 1)));
            }
        }
        throw std::runtime_error("rexd did not report listening");
    }

    std::string _dir;
    std::vector<std::string> _args;
    pid_t _pid = -1;
    int _out = -1;
    std::uint16_t _port = 0;
};

/** One request of a step and what came back. */
struct Request {
    double due = 0;  //!< seconds after the step start
    Class cls = Cold;
    std::size_t input = 0;
    int status = 0;
    double latency = 0;  //!< seconds from due to response
    double late = 0;     //!< seconds from due to send
    bool keepBody = false;
    std::string body;
    std::string etag;
};

/** Cumulative /metrics samples, keyed "name{labels}". */
std::map<std::string, double>
scrape(server::Client &client)
{
    std::map<std::string, double> out;
    server::ClientResponse response = client.get("/metrics");
    std::istringstream lines(response.body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                 nullptr);
    }
    return out;
}

class Mix
{
  public:
    Mix(const Options &options, Gates &gates, Trace *trace)
        : _options(options), _gates(gates), _trace(trace),
          _connections(std::max(1u, std::min(
                                         4u, std::thread::
                                                 hardware_concurrency())))
    {}

    /** Generate every input up front: the warm pool, the set-up test,
     *  and one fresh test per cold request the plan can send (with
     *  @p ladder, the rate ladder's too). */
    void
    prepare(double nominalSeconds, bool ladder)
    {
        _rng.seed(_options.seed);
        std::uint64_t base = 1'000'000'000ull + _options.seed * 1'000'003ull;
        for (std::size_t i = 0; i < kPoolSize; ++i)
            _inputs.push_back(makeInput(base + i));
        // Every daemon's first check: the same test in every run, so
        // set-up time does not follow one test's cost.
        _inputs.push_back(makeInput(kSetupSeed));

        // The nominal step's cold tests: a seeded sample of a fixed
        // universe of rexgen seeds, so the heavy tail of check cost is
        // much the same in every run while the tests and their order
        // change with the seed. Every test is still fresh to the daemon.
        std::size_t nominalCold = static_cast<std::size_t>(
            std::llround(kColdShare * kNominalRps * nominalSeconds));
        std::vector<std::uint64_t> universe(nominalCold * 5 / 4);
        for (std::size_t i = 0; i < universe.size(); ++i)
            universe[i] = kColdUniverseBase + i;
        std::shuffle(universe.begin(), universe.end(), _rng);
        for (std::size_t i = 0; i < nominalCold; ++i)
            _inputs.push_back(makeInput(universe[i]));

        _nextCold = kFirstCold;
        if (!ladder)
            return;

        // The ladder's: as many as its longest climb can send (every
        // step, then every bisection at the top rate), seed-derived.
        double requests = 0;
        double top = kNominalRps * std::pow(kLadderRatio, kLadderSteps);
        for (int k = 1; k <= kLadderSteps; ++k) {
            double rate = kNominalRps * std::pow(kLadderRatio, k);
            requests += rate * ladderStepSeconds(rate, nominalSeconds);
        }
        requests += kBisections * top * ladderStepSeconds(top, nominalSeconds);
        requests *= 2;  // every rate may be tried twice
        std::size_t ladderCold =
            static_cast<std::size_t>(kColdShare * requests + 64);
        for (std::size_t i = 0; i < ladderCold; ++i)
            _inputs.push_back(makeInput(base + kPoolSize + i));
    }

    /** Start a daemon in a fresh directory; the seconds from spawn to
     *  the first /check answered. */
    double
    startDaemon(std::unique_ptr<Daemon> &daemon)
    {
        std::string dir = _options.outDir + "/rexd-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(_daemons++);
        std::filesystem::remove_all(dir);
        Clock::time_point start = Clock::now();
        daemon = std::make_unique<Daemon>(_options.rexd, dir);
        server::Client client("127.0.0.1", daemon->port());
        server::ClientResponse first =
            client.post("/check", _inputs[kPoolSize].body);
        double seconds = secondsSince(start);
        _gates.check(first.status == 200, "rexd first /check failed");
        _dirs.push_back(dir);
        return seconds;
    }

    void
    cleanDirs()
    {
        for (const std::string &dir : _dirs)
            std::filesystem::remove_all(dir);
    }

    /** Cold-check the pool closed loop; keep bodies and ETags. */
    void
    warm(std::uint16_t port)
    {
        _port = port;
        server::Client client("127.0.0.1", port);
        client.setKeepAlive(true);
        for (std::size_t i = 0; i < kPoolSize; ++i) {
            server::ClientResponse response =
                client.post("/check", _inputs[i].body);
            _gates.check(response.status == 200, "rexd warm-up failed");
            _poolEtag.push_back(response.headers["etag"]);
            _gates.check(!_poolEtag.back().empty(), "rexd 200 without ETag");
            checkRecord(i, response.body);
        }
    }

    /** Run one open-loop step at @p rate for @p seconds. A @p nominal
     *  step's requests count as attempts and feed the gates; a ladder
     *  step's do not, and it stops sending once a second behind. */
    std::vector<Request>
    step(double rate, double seconds, bool nominal)
    {
        std::size_t count = static_cast<std::size_t>(rate * seconds);
        std::vector<Request> requests(count);
        // Exact class shares in a seeded order.
        std::vector<Class> classes(count, Revalidate);
        std::size_t cold = static_cast<std::size_t>(
            std::llround(kColdShare * static_cast<double>(count)));
        std::size_t hit = static_cast<std::size_t>(
            std::llround(kHitShare * static_cast<double>(count)));
        std::fill_n(classes.begin(), cold, Cold);
        std::fill_n(classes.begin() + static_cast<std::ptrdiff_t>(cold), hit,
                    Hit);
        std::shuffle(classes.begin(), classes.end(), _rng);
        std::uniform_real_distribution<double> unit(0, 1);
        std::uniform_int_distribution<std::size_t> pool(0, kPoolSize - 1);
        for (std::size_t i = 0; i < count; ++i) {
            Request &r = requests[i];
            r.due = static_cast<double>(i) / rate;
            r.cls = classes[i];
            if (r.cls == Cold) {
                _gates.check(_nextCold < _inputs.size(),
                             "rexd-mix ran out of fresh cold tests");
                r.input = std::min(_nextCold++, _inputs.size() - 1);
            } else {
                r.input = pool(_rng);
            }
            r.keepBody = nominal && r.cls != Revalidate &&
                         unit(_rng) < 4.0 * kSampledRecords /
                                          static_cast<double>(count);
        }

        // Each class gets its own connections when there are enough
        // (cold two, hit one, revalidate one), so a slow cold check
        // delays the other classes only inside the server.
        std::vector<std::vector<std::size_t>> lanes(_connections >= 3 ? 3
                                                                      : 1);
        for (std::size_t i = 0; i < count; ++i)
            lanes[lanes.size() == 3 ? requests[i].cls : 0].push_back(i);
        std::vector<std::size_t> laneOf;
        for (unsigned c = 0; c < _connections; ++c) {
            laneOf.push_back(lanes.size() == 1 ? 0
                             : c < _connections - 2 ? Cold
                             : c == _connections - 2 ? Hit
                                                     : Revalidate);
        }
        std::vector<std::atomic<std::size_t>> next(lanes.size());
        for (auto &n : next)
            n = 0;

        std::atomic<bool> abandoned{false};
        Clock::time_point start = Clock::now() +
                                  std::chrono::milliseconds(20);
        auto worker = [&](std::size_t lane) {
            server::Client client("127.0.0.1", _port);
            client.setKeepAlive(true);
            for (;;) {
                std::size_t at = next[lane].fetch_add(1);
                if (at >= lanes[lane].size())
                    return;
                std::size_t i = lanes[lane][at];
                Request &r = requests[i];
                Clock::time_point due =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(r.due));
                // A ladder step that fell a second behind has found its
                // answer: the rest is left unsent and misses the limit.
                if (!nominal && abandoned.load()) {
                    r.status = kUnsent;
                    r.latency = r.late = kAbandonLateS;
                    continue;
                }
                std::this_thread::sleep_until(due);
                Clock::time_point sent = Clock::now();
                if (!nominal && secondsBetween(due, sent) > kAbandonLateS) {
                    abandoned = true;
                    r.status = kUnsent;
                    r.latency = r.late = secondsBetween(due, sent);
                    continue;
                }
                ScopedSpan span(_trace, "server.request", 0, i);
                span.setCount(r.cls);
                try {
                    std::map<std::string, std::string> headers;
                    if (r.cls == Revalidate)
                        headers["If-None-Match"] = _poolEtag[r.input];
                    server::ClientResponse response =
                        client.post("/check", _inputs[r.input].body,
                                    "application/json", headers);
                    r.status = response.status;
                    r.etag = response.headers["etag"];
                    if (r.keepBody)
                        r.body = std::move(response.body);
                } catch (const std::exception &) {
                    r.status = 0;
                }
                Clock::time_point done = Clock::now();
                r.latency = secondsBetween(due, done);
                r.late = secondsBetween(due, sent);
            }
        };
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < _connections; ++c)
            threads.emplace_back(worker, laneOf[c]);
        for (std::thread &thread : threads)
            thread.join();

        for (Request &r : requests) {
            bool ok = r.cls == Revalidate
                          ? r.status == 304 && r.etag == _poolEtag[r.input]
                          : r.status == 200;
            // The ladder probes past capacity on purpose: a shed or
            // unsent request misses the limit there, and is its answer
            // rather than a failed operation.
            if (!nominal) {
                if (!ok)
                    r.latency = std::max(r.latency, kAbandonLateS);
                continue;
            }
            ++_gates.attempted;
            if (!ok)
                ++_gates.failed;
            if (r.cls == Revalidate && r.status == 304) {
                _gates.check(r.etag == _poolEtag[r.input],
                             "304 carried another ETag than its 200");
            }
            if (!r.body.empty() && _checked < kSampledRecords)
                checkRecord(r.input, r.body);
        }
        return requests;
    }

    const std::string &source(std::size_t i) const
    {
        return _inputs[i].source;
    }

    unsigned connections() const { return _connections; }

  private:
    /** A 200 body must hold one record per paper variant, each with the
     *  verdict an in-process checkTest gives. */
    void
    checkRecord(std::size_t input, const std::string &body)
    {
        ++_checked;
        LitmusTest test = parseLitmus(_inputs[input].source);
        std::istringstream lines(body);
        std::string line;
        std::size_t records = 0;
        while (std::getline(lines, line)) {
            if (line.empty())
                continue;
            server::JsonValue record = server::parseJson(line);
            const server::JsonValue *variant = record.find("variant");
            const server::JsonValue *verdict = record.find("verdict");
            if (!variant || !verdict) {
                _gates.check(false, "rexd record without variant/verdict");
                continue;
            }
            ++records;
            bool allowed = checkTest(test, ModelParams::byName(
                                               variant->string),
                                     true, false)
                               .observable;
            _gates.check(verdict->string ==
                             (allowed ? "Allowed" : "Forbidden"),
                         "rexd verdict differs from checkTest for " +
                             test.name + " under " + variant->string);
        }
        _gates.check(records == ModelParams::paperVariants().size(),
                     "rexd 200 without one record per paper variant");
    }

    const Options &_options;
    Gates &_gates;
    Trace *_trace;
    unsigned _connections;
    std::vector<Input> _inputs;
    std::size_t _nextCold = 0;
    std::vector<std::string> _poolEtag;
    std::mt19937_64 _rng;
    std::uint16_t _port = 0;
    std::size_t _checked = 0;
    unsigned _daemons = 0;
    std::vector<std::string> _dirs;
};

std::vector<double>
latencies(const std::vector<Request> &requests, Class cls, double scale)
{
    std::vector<double> out;
    for (const Request &r : requests) {
        if (r.cls == cls)
            out.push_back(r.latency * scale);
    }
    return out;
}

/** The step kept up: cold p99 within the limit (unsent requests miss
 *  it), and the last tenth of the requests went out on time. */
bool
keptUp(const std::vector<Request> &requests, double &coldP99Ms)
{
    coldP99Ms = quantile(latencies(requests, Cold, 1e3), 0.99);
    std::vector<double> tailLate;
    for (std::size_t i = requests.size() * 9 / 10; i < requests.size(); ++i)
        tailLate.push_back(requests[i].late * 1e3);
    return coldP99Ms <= kColdLimitMs &&
           median(tailLate) <= kColdLimitMs / 2;
}

/** VerdictCache on a disk directory: a cold request's miss lookup and
 *  durable store, one span each. */
void
probeVerdictCache(const Mix &mix, const std::string &dir, Trace *trace,
                  Metrics &layers)
{
    std::filesystem::remove_all(dir);
    engine::VerdictCache cache(true, dir);
    const ModelParams params = ModelParams::base();
    for (std::size_t i = 0; i < 64; ++i) {
        LitmusTest test = parseLitmus(mix.source(kFirstCold + i));
        engine::VerdictKey key = engine::VerdictKey::make(test, params);
        engine::CachedVerdict verdict = engine::CachedVerdict::fromResult(
            checkTest(test, params, true, false));
        {
            ScopedSpan span(trace, "engine.cache_lookup", 0, i);
            (void)cache.lookup(key);
        }
        ScopedSpan span(trace, "engine.cache_store", 0, i);
        cache.store(key, verdict);
    }
    std::filesystem::remove_all(dir);
    layers.add("engine.cache_lookup_us",
               median(trace->durations("engine.cache_lookup")) / 1e3, "us");
    layers.add("engine.cache_store_us",
               median(trace->durations("engine.cache_store")) / 1e3, "us");
}

double
delta(const std::map<std::string, double> &before,
      const std::map<std::string, double> &after, const std::string &key)
{
    auto a = after.find(key);
    auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
}

double
stageMeanUs(const std::map<std::string, double> &before,
            const std::map<std::string, double> &after,
            const std::string &stage)
{
    std::string labels = "{stage=\"" + stage + "\"}";
    double count = delta(before, after, "rexd_stage_seconds_count" + labels);
    double sum = delta(before, after, "rexd_stage_seconds_sum" + labels);
    return count > 0 ? sum / count * 1e6 : 0;
}

} // namespace

std::string g_rexdFlags;

namespace {

class RexdPhase : public Phase
{
  public:
    explicit RexdPhase(const PhaseContext &ctx)
        : _ctx(ctx), _focus(ctx.options.workload == kRexdMix),
          _nominalSeconds(ctx.options.smoke ? 0.25 : ctx.options.seconds),
          _attemptedBefore(ctx.gates.attempted),
          _failedBefore(ctx.gates.failed),
          _mix(ctx.options, ctx.gates, ctx.trace)
    {
        _mix.prepare(_nominalSeconds, ctx.trace != nullptr);
        _setups.push_back(_mix.startDaemon(_daemon));
        g_rexdFlags = _daemon->flags();
        _mix.warm(_daemon->port());
        _metricsClient = std::make_unique<server::Client>("127.0.0.1",
                                                          _daemon->port());
        _start = scrape(*_metricsClient);
    }

    /** Slice k starts a batch of throwaway daemons (rexd-mix's set-up
     *  samples, spread over the run), then sends the k-th part of the
     *  nominal step. */
    void
    slice(std::size_t, std::size_t slices) override
    {
        if (_focus && !_ctx.options.smoke) {
            for (int i = 0; i < kSetupsPerSlice; ++i) {
                std::unique_ptr<Daemon> daemon;
                _setups.push_back(_mix.startDaemon(daemon));
                daemon->kill();
            }
        }
        _slices.push_back(_mix.step(
            kNominalRps, _nominalSeconds / static_cast<double>(slices),
            /*nominal=*/true));
    }

    void
    finish() override
    {
        Metrics &e2e = _ctx.e2e;
        Metrics &layers = _ctx.layers;
        Gates &gates = _ctx.gates;
        Trace *trace = _ctx.trace;
        const std::map<std::string, double> afterNominal =
            scrape(*_metricsClient);
        std::vector<Request> nominal;
        for (const std::vector<Request> &slice : _slices)
            nominal.insert(nominal.end(), slice.begin(), slice.end());

        layers.add("cold_ms_p50",
                   quantile(latencies(nominal, Cold, 1e3), 0.5), "ms");
        layers.add("hit_ms_p50", quantile(latencies(nominal, Hit, 1e3), 0.5),
                   "ms");
        layers.add("revalidate_us_p50",
                   quantile(latencies(nominal, Revalidate, 1e6), 0.5), "us");
        layers.add("cold_ms_p99", slicedP99(Cold, 1e3), "ms");
        layers.add("hit_ms_p99", slicedP99(Hit, 1e3), "ms");
        layers.add("revalidate_us_p99", slicedP99(Revalidate, 1e6), "us");
        if (_focus) {
            e2e.add("setup_s", median(_setups), "s");
            e2e.add("peak_rss_mb",
                    peakRssMb(std::to_string(_daemon->pid())), "MB");
            layers.add(
                "failed_ratio",
                static_cast<double>(gates.failed - _failedBefore) /
                    static_cast<double>(gates.attempted - _attemptedBefore),
                "ratio");
        }
        std::fprintf(stderr,
                     "rexd-mix: %zu nominal requests at %.0f/s over %u "
                     "connections\n",
                     nominal.size(), kNominalRps, _mix.connections());

        if (trace) {
            std::vector<double> late;
            for (const Request &r : nominal)
                late.push_back(r.late * 1e3);
            layers.add("loadgen.late_ms_p99", quantile(late, 0.99), "ms");
            layers.add("server.stage_parse_us",
                       stageMeanUs(_start, afterNominal, "parse"), "us");
            layers.add("server.stage_enumerate_us",
                       stageMeanUs(_start, afterNominal, "enumerate"), "us");
            layers.add("server.stage_request_us",
                       stageMeanUs(_start, afterNominal, "request"), "us");
            double hits = delta(_start, afterNominal, "rexd_cache_hits_total");
            double misses =
                delta(_start, afterNominal, "rexd_cache_misses_total");
            layers.add("engine.cache_hit_ratio",
                       hits + misses > 0 ? hits / (hits + misses) : 0,
                       "ratio");
            layers.add("max_rate_rps", maxRate(nominal), "1/s");
            const std::map<std::string, double> end = scrape(*_metricsClient);
            layers.add("server.http_304",
                       delta(_start, end, "rexd_http_304_total"), "count");
            layers.add("server.queue_rejected",
                       delta(_start, end, "rexd_queue_rejected_total"),
                       "count");
        }
        _metricsClient.reset();
        _daemon->stop();
        _mix.cleanDirs();
        if (trace) {
            probeVerdictCache(_mix,
                              _ctx.options.outDir + "/verdict-cache-probe",
                              trace, layers);
        }
    }

  private:
    /**
     * The rate ladder: climb from the nominal rate until a rate does not
     * keep up, bisect the last bracket, and interpolate inside it on
     * cold p99, never past the bracket's ends.
     */
    double
    maxRate(const std::vector<Request> &nominal)
    {
        double passRate = kNominalRps;
        double passP99 = 0;
        double failRate = 0;
        double failP99 = 0;
        double p99 = 0;
        auto tryRate = [&](double rate) {
            ::usleep(100000);
            const double seconds = ladderStepSeconds(rate, _nominalSeconds);
            // A rate fails when two attempts at it do not keep up, so a
            // stall of the host alone does not end the climb.
            for (int attempt = 0; attempt < 2; ++attempt) {
                bool kept = keptUp(_mix.step(rate, seconds, false), p99);
                std::fprintf(stderr,
                             "rexd-mix: %.0f/s for %.1f s: cold p99 %.2f "
                             "ms, %s\n",
                             rate, seconds, p99,
                             kept ? "kept up" : "fell behind");
                if (kept) {
                    passRate = rate;
                    passP99 = p99;
                    return true;
                }
            }
            failRate = rate;
            failP99 = p99;
            return false;
        };
        if (!keptUp(nominal, passP99)) {
            failRate = kNominalRps;
            failP99 = passP99;
            passRate = 0;
            passP99 = 0;
        } else {
            for (int k = 1; k <= kLadderSteps &&
                            tryRate(kNominalRps * std::pow(kLadderRatio, k));
                 ++k) {
            }
        }
        if (failRate == 0) {
            std::fprintf(stderr, "rexd-mix: the ladder's top rate kept up; "
                                 "max_rate_rps is a lower bound\n");
            return passRate;
        }
        for (int i = 0; i < kBisections && passRate > 0; ++i)
            tryRate(std::sqrt(passRate * failRate));
        // A failed rate may have missed on backlog alone, its cold p99
        // within the limit: then there is nothing to interpolate on.
        if (failP99 <= kColdLimitMs || failP99 <= passP99)
            return passRate;
        return std::clamp(passRate + (failRate - passRate) *
                                         (kColdLimitMs - passP99) /
                                         (failP99 - passP99),
                          passRate, failRate);
    }

    /** p99 of one class in each nominal slice, median over slices: a
     *  single stall of the host lifts one slice's p99, not the run's. */
    double
    slicedP99(Class cls, double scale) const
    {
        std::vector<double> p99s;
        for (const std::vector<Request> &slice : _slices)
            p99s.push_back(quantile(latencies(slice, cls, scale), 0.99));
        return median(p99s);
    }

    PhaseContext _ctx;
    bool _focus;
    double _nominalSeconds;
    std::uint64_t _attemptedBefore;
    std::uint64_t _failedBefore;
    Mix _mix;
    std::unique_ptr<Daemon> _daemon;
    std::unique_ptr<server::Client> _metricsClient;
    std::map<std::string, double> _start;
    std::vector<std::vector<Request>> _slices;
    /** Seconds from each daemon's spawn to its first /check answered. */
    std::vector<double> _setups;
};

} // namespace

std::unique_ptr<Phase>
makeRexdPhase(const PhaseContext &ctx)
{
    return std::make_unique<RexdPhase>(ctx);
}

} // namespace rexbench
