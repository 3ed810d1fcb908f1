/**
 * @file
 * rexd: the litmus-checking daemon.
 *
 * Wraps RexServer around one long-lived engine (thread pool + shared
 * verdict cache + JSONL results sink) and wires SIGTERM/SIGINT to
 * graceful drain through a self-pipe: the handler only write()s a byte
 * (async-signal-safe); the main thread, blocked on the pipe, then runs
 * the full drain — stop accepting, serve every accepted request, flush
 * and close the results sink — before exiting 0.
 *
 * Usage:
 *   rexd [--host H] [--port P] [--threads N] [--queue N] [--jobs N]
 *        [--cache-dir DIR] [--cache-max-bytes N] [--no-cache]
 *        [--results PATH] [--max-body BYTES] [--io-timeout SECONDS]
 *        [--max-deadline-ms N] [--max-candidates N]
 *        [--workers N] [--crash-quarantine N] [--kill-grace-ms N]
 *        [--max-conns N] [--idle-timeout SECONDS] [--max-age SECONDS]
 *        [--crash-ledger-max N]
 *
 * Defaults: 127.0.0.1:8643, 4 handler threads, queue bound 64, engine
 * jobs from REX_JOBS (else hardware concurrency), cache settings from
 * REX_CACHE / REX_CACHE_DIR / REX_CACHE_MAX_BYTES, results from
 * REX_RESULTS. Prints "rexd listening on H:P" once ready (scripts wait
 * for it), and a final stats line after drain.
 *
 * --max-deadline-ms / --max-candidates cap every /check's resource
 * budget server-side: requests asking for more (or for no budget at
 * all) are clamped down to the caps. 0 (the default) imposes nothing.
 *
 * --workers N runs each cache-missing check in one of N supervised
 * worker processes (engine/supervisor.hh): a crash in enumeration
 * yields a CrashedWorker verdict for that request only, the daemon and
 * concurrent requests unharmed. --crash-quarantine sets how many
 * crashes a (test, variant) key survives before being answered
 * Quarantined without dispatch; --kill-grace-ms how far past its
 * cooperative deadline a worker may run before SIGKILL. Pair --workers
 * with --max-deadline-ms so every job has a hard deadline.
 *
 * --max-conns caps concurrently open connections (beyond it, accepts
 * are answered 503 + Retry-After and closed); --idle-timeout closes
 * keep-alive connections idle that long; --max-age sets the
 * Cache-Control max-age advertised on deterministic /check 200s.
 *
 * --crash-ledger-max caps the supervisor's crash ledger (LRU).
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "base/logging.hh"
#include "engine/batch.hh"
#include "server/server.hh"

namespace {

int g_drain_pipe[2] = {-1, -1};

extern "C" void
drainSignalHandler(int)
{
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(g_drain_pipe[1], &byte, 1);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--host H] [--port P] [--threads N] [--queue N]\n"
        "            [--jobs N] [--cache-dir DIR] [--cache-max-bytes N]\n"
        "            [--no-cache] [--results PATH] [--max-body BYTES]\n"
        "            [--io-timeout SECONDS] [--max-deadline-ms N]\n"
        "            [--max-candidates N] [--workers N]\n"
        "            [--crash-quarantine N] [--kill-grace-ms N]\n"
        "            [--max-conns N] [--idle-timeout SECONDS]\n"
        "            [--max-age SECONDS] [--crash-ledger-max N]\n",
        argv0);
    std::exit(2);
}

unsigned long
numberArg(int argc, char **argv, int &arg, const char *argv0)
{
    if (arg + 1 >= argc)
        usage(argv0);
    char *end = nullptr;
    unsigned long value = std::strtoul(argv[++arg], &end, 10);
    if (!end || *end != '\0')
        usage(argv0);
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rex;

    server::ServerConfig config;
    config.port = 8643;
    engine::EngineConfig engine_config = engine::EngineConfig::fromEnv();

    for (int arg = 1; arg < argc; ++arg) {
        if (std::strcmp(argv[arg], "--host") == 0) {
            if (arg + 1 >= argc)
                usage(argv[0]);
            config.host = argv[++arg];
        } else if (std::strcmp(argv[arg], "--port") == 0) {
            config.port = static_cast<std::uint16_t>(
                numberArg(argc, argv, arg, argv[0]));
        } else if (std::strcmp(argv[arg], "--threads") == 0) {
            config.threads = static_cast<unsigned>(
                numberArg(argc, argv, arg, argv[0]));
        } else if (std::strcmp(argv[arg], "--queue") == 0) {
            config.maxQueue = numberArg(argc, argv, arg, argv[0]);
        } else if (std::strcmp(argv[arg], "--jobs") == 0) {
            engine_config.jobs = static_cast<unsigned>(
                numberArg(argc, argv, arg, argv[0]));
        } else if (std::strcmp(argv[arg], "--cache-dir") == 0) {
            if (arg + 1 >= argc)
                usage(argv[0]);
            engine_config.cacheDir = argv[++arg];
        } else if (std::strcmp(argv[arg], "--cache-max-bytes") == 0) {
            engine_config.cacheMaxBytes =
                numberArg(argc, argv, arg, argv[0]);
        } else if (std::strcmp(argv[arg], "--no-cache") == 0) {
            engine_config.cacheEnabled = false;
        } else if (std::strcmp(argv[arg], "--results") == 0) {
            if (arg + 1 >= argc)
                usage(argv[0]);
            engine_config.resultsPath = argv[++arg];
        } else if (std::strcmp(argv[arg], "--max-body") == 0) {
            config.limits.maxBodyBytes =
                numberArg(argc, argv, arg, argv[0]);
        } else if (std::strcmp(argv[arg], "--io-timeout") == 0) {
            config.limits.ioTimeoutSeconds = static_cast<int>(
                numberArg(argc, argv, arg, argv[0]));
        } else if (std::strcmp(argv[arg], "--max-deadline-ms") == 0) {
            config.maxDeadlineMs = numberArg(argc, argv, arg, argv[0]);
        } else if (std::strcmp(argv[arg], "--max-candidates") == 0) {
            config.maxCandidates = numberArg(argc, argv, arg, argv[0]);
        } else if (std::strcmp(argv[arg], "--workers") == 0) {
            engine_config.workers = static_cast<unsigned>(
                numberArg(argc, argv, arg, argv[0]));
        } else if (std::strcmp(argv[arg], "--crash-quarantine") == 0) {
            engine_config.crashQuarantine = static_cast<unsigned>(
                numberArg(argc, argv, arg, argv[0]));
        } else if (std::strcmp(argv[arg], "--kill-grace-ms") == 0) {
            engine_config.killGraceMs =
                numberArg(argc, argv, arg, argv[0]);
        } else if (std::strcmp(argv[arg], "--max-conns") == 0) {
            config.maxConnections = numberArg(argc, argv, arg, argv[0]);
        } else if (std::strcmp(argv[arg], "--idle-timeout") == 0) {
            config.idleTimeoutSeconds = static_cast<int>(
                numberArg(argc, argv, arg, argv[0]));
        } else if (std::strcmp(argv[arg], "--max-age") == 0) {
            config.cacheMaxAgeSeconds = static_cast<int>(
                numberArg(argc, argv, arg, argv[0]));
        } else if (std::strcmp(argv[arg], "--crash-ledger-max") == 0) {
            engine_config.crashLedgerMax =
                numberArg(argc, argv, arg, argv[0]);
        } else {
            usage(argv[0]);
        }
    }

    if (::pipe(g_drain_pipe) < 0) {
        std::perror("pipe");
        return 1;
    }
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = drainSignalHandler;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    try {
        engine::Engine engine(engine_config);
        server::RexServer server(engine, config);
        server.start();
        std::printf("rexd listening on %s:%u (threads=%u queue=%zu "
                    "jobs=%u workers=%u max-conns=%zu)\n",
                    server.config().host.c_str(), server.port(),
                    server.config().threads, server.config().maxQueue,
                    engine.jobs(), engine_config.workers,
                    server.config().maxConnections);
        std::fflush(stdout);

        // Block until a drain signal arrives.
        char byte;
        while (::read(g_drain_pipe[0], &byte, 1) < 0 && errno == EINTR) {
        }

        std::printf("rexd draining...\n");
        std::fflush(stdout);
        server.requestDrain();
        server.join();

        std::printf("rexd drained: %llu records, %llu cache hits, "
                    "%llu misses, %llu rejected\n",
                    static_cast<unsigned long long>(
                        engine.results().records()),
                    static_cast<unsigned long long>(
                        engine.cache().hits()),
                    static_cast<unsigned long long>(
                        engine.cache().misses()),
                    static_cast<unsigned long long>(
                        server.metrics().queueRejected.load()));
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "rexd: %s\n", err.what());
        return 1;
    }
}
