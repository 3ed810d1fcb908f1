/**
 * @file
 * rexbench: rex's end-to-end benchmark.
 *
 * Usage:
 *   rexbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D]
 *   rexbench                       smoke pass of every phase, exit 0
 *   rexbench --record-hammer N     print the hammer outcome table
 *
 * Workloads: suite-matrix, hammer-random, rexd-mix. Every run measures
 * all three phases, interleaved in five slices, so every end-to-end
 * metric is printed on every workload; the named workload decides what
 * setup_s and peak_rss_mb measure. The last stdout line is the result object
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * derived from the recorded spans (--trace 1). The line before it is
 * the host stamp. A failed correctness gate prints correct: false and
 * exits 1.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include "common.hh"


extern char **environ;

namespace {

using namespace rexbench;

/** Interleaved measuring slices per run. */
constexpr std::size_t kSlices = 5;

/** The metrics BENCHMARK.json names, in its order. */
const char *const kEndToEnd[] = {
    "setup_s",
    "peak_rss_mb",
    "verdicts_per_s",
    "seeds_per_s",
};

/** Per-layer metrics, led by the rexd latencies and rate limit: end to
 *  end by nature, but their run-to-run spread on a shared host is wider
 *  than any bound the benchmark may set, so they ride in the traced
 *  run without one. */
const char *const kPerLayer[] = {
    "cold_ms_p50",
    "cold_ms_p99",
    "hit_ms_p50",
    "hit_ms_p99",
    "revalidate_us_p50",
    "revalidate_us_p99",
    "max_rate_rps",
    "litmus.parse_us",
    "axiomatic.traces_us",
    "axiomatic.verdict_us_p50",
    "axiomatic.verdict_us_p99",
    "axiomatic.candidates_per_verdict",
    "axiomatic.coherent_ratio",
    "axiomatic.staged_ns_per_candidate",
    "catc.compile_us",
    "catc.fold_us",
    "catc.refold_ns",
    "catc.run_ns_per_candidate",
    "operational.explore_ms_p50",
    "operational.explore_ms_p99",
    "operational.states",
    "operational.ns_per_state",
    "operational.truncated",
    "engine.busy_ratio",
    "engine.chunk_tail_ms",
    "engine.cache_lookup_us",
    "engine.cache_store_us",
    "engine.cache_hit_ratio",
    "server.stage_parse_us",
    "server.stage_enumerate_us",
    "server.stage_request_us",
    "server.http_304",
    "server.queue_rejected",
    "loadgen.late_ms_p99",
    "failed_ratio",
    "trace.overhead_pct",
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: rexbench --workload suite-matrix|hammer-random|"
                 "rexd-mix --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n"
                 "       rexbench            (smoke pass)\n"
                 "       rexbench --record-hammer N\n");
    std::exit(2);
}

/** Drop REX_* knobs so every engine and rexd starts from defaults. */
void
clearRexEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; *env; ++env) {
        std::string entry = *env;
        if (entry.rfind("REX_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        ::unsetenv(name.c_str());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    }
    return "unknown";
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** The host facts every result set carries. */
std::string
hostStamp(const Options &options)
{
    return "{\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu\": " + jsonString(cpuModel()) +
           ", \"compiler\": " + jsonString(REXBENCH_COMPILER) +
           ", \"build_type\": " + jsonString(REXBENCH_BUILD_TYPE) +
           ", \"jobs\": {\"suite-matrix\": 1, \"hammer-random\": " +
           std::to_string(options.hammerJobs) +
           ", \"rexd-mix\": \"rexd defaults (engine jobs = nproc, 4 "
           "handler threads)\"}" +
           ", \"rexd_flags\": " + jsonString(g_rexdFlags) +
           ", \"workload\": " + jsonString(options.workload) +
           ", \"seed\": " + std::to_string(options.seed) +
           ", \"seconds\": " + std::to_string(options.seconds) +
           ", \"trace\": " + (options.trace ? "1" : "0") + "}";
}

/** Reorder @p metrics into @p names order; a missing one fails. */
Metrics
ordered(const Metrics &metrics, const char *const *names, std::size_t count,
        Gates &gates)
{
    Metrics out;
    for (std::size_t i = 0; i < count; ++i) {
        bool found = false;
        for (const auto &[name, entry] : metrics.entries()) {
            if (name == names[i]) {
                out.add(name, entry.first, entry.second);
                found = true;
                break;
            }
        }
        gates.check(found, std::string("metric not measured: ") + names[i]);
    }
    return out;
}

int
run(Options &options)
{
    Gates gates;
    Trace trace(options.trace);
    Trace *traced = options.trace ? &trace : nullptr;
    Metrics e2e;
    Metrics layers;

    // Every phase measures in kSlices slices, interleaved, so each one
    // samples the whole run rather than one stretch of the host's load.
    // So do the set-up probes of suite-matrix and hammer-random; rexd-mix
    // times its own daemon starts.
    try {
        PhaseContext ctx{options, traced, e2e, layers, gates};
        std::optional<SetupProbes> probes;
        if (!options.smoke && options.workload != kRexdMix)
            probes.emplace(options, gates);
        std::unique_ptr<Phase> suite = makeSuitePhase(ctx);
        std::unique_ptr<Phase> hammer = makeHammerPhase(ctx);
        std::unique_ptr<Phase> rexd = makeRexdPhase(ctx);
        const std::size_t slices = options.smoke ? 1 : kSlices;
        for (std::size_t k = 0; k < slices; ++k) {
            if (probes)
                probes->batch();
            for (Phase *phase : {suite.get(), hammer.get(), rexd.get()})
                phase->slice(k, slices);
        }
        if (probes) {
            e2e.add("setup_s", probes->seconds(), "s");
            e2e.add("peak_rss_mb", probes->peakRssMb(), "MB");
        }
        for (Phase *phase : {rexd.get(), suite.get(), hammer.get()})
            phase->finish();
    } catch (const std::exception &err) {
        gates.check(false, std::string("run aborted: ") + err.what());
    }

    if (options.smoke) {
        std::printf("rexbench smoke pass: %s\n",
                    gates.passed() ? "ok" : "FAILED");
        return gates.passed() ? 0 : 1;
    }

    Metrics result;
    if (options.trace) {
        layers.add("trace.overhead_pct", trace.overheadPct(), "%");
        result = ordered(layers, kPerLayer, std::size(kPerLayer), gates);
        std::string spans = options.outDir + "/spans-" + options.workload +
                            "-" + std::to_string(options.seed) + ".jsonl";
        trace.write(spans);
        std::fprintf(stderr, "rexbench: %zu spans -> %s\n", trace.size(),
                     spans.c_str());
    } else {
        result = ordered(e2e, kEndToEnd, std::size(kEndToEnd), gates);
    }

    std::string stamp = hostStamp(options);
    std::string line = std::string("{\"correct\": ") +
                       (gates.passed() ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(std::max<std::uint64_t>(
                           gates.attempted, 1)) +
                       ", \"failed\": " + std::to_string(gates.failed) +
                       ", \"metrics\": {" + result.json() + "}}";
    std::ofstream(options.outDir + "/run-" + options.workload + "-" +
                  std::to_string(options.seed) + "-trace" +
                  (options.trace ? "1" : "0") + ".json")
        << "{\"host\": " << stamp << ", \"result\": " << line << "}\n";
    std::printf("# host %s\n%s\n", stamp.c_str(), line.c_str());
    std::fflush(stdout);
    return gates.passed() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "rexbench: refusing to measure a build without "
                         "optimisation (build type " REXBENCH_BUILD_TYPE
                         ")\n");
    return 3;
#endif
    clearRexEnvironment();

    Options options;
    options.self = std::filesystem::canonical("/proc/self/exe").string();
    options.rexd = REXBENCH_REXD;
    options.outDir = REXBENCH_BINARY_DIR "/out";
    options.hammerJobs =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

    std::string probe;
    bool probeRssToo = false;
    bool haveWorkload = false;
    for (int arg = 1; arg < argc; ++arg) {
        auto value = [&]() -> std::string {
            if (arg + 1 >= argc)
                usage();
            return argv[++arg];
        };
        if (std::strcmp(argv[arg], "--workload") == 0) {
            options.workload = value();
            haveWorkload = true;
        } else if (std::strcmp(argv[arg], "--seed") == 0) {
            options.seed = std::stoull(value());
        } else if (std::strcmp(argv[arg], "--seconds") == 0) {
            options.seconds = std::stod(value());
        } else if (std::strcmp(argv[arg], "--trace") == 0) {
            options.trace = value() == "1";
        } else if (std::strcmp(argv[arg], "--out-dir") == 0) {
            options.outDir = value();
        } else if (std::strcmp(argv[arg], "--setup-probe") == 0) {
            probe = value();
        } else if (std::strcmp(argv[arg], "--probe-rss") == 0) {
            probeRssToo = true;
        } else if (std::strcmp(argv[arg], "--record-hammer") == 0) {
            return recordHammerOutcomes(std::stoull(value()),
                                        options.hammerJobs);
        } else {
            usage();
        }
    }

    if (probe == kSuiteMatrix)
        return suiteSetupProbe(probeRssToo);
    if (probe == kHammerRandom)
        return hammerSetupProbe(options.hammerJobs, probeRssToo);
    if (!probe.empty())
        usage();

    if (!haveWorkload) {
        // A bare invocation (CI runs every bench binary argument-less)
        // is a quick smoke pass of every phase.
        options.smoke = true;
        options.workload = kSuiteMatrix;
        options.outDir = REXBENCH_BINARY_DIR "/smoke";
    } else if (options.workload != kSuiteMatrix &&
               options.workload != kHammerRandom &&
               options.workload != kRexdMix) {
        usage();
    }
    std::filesystem::create_directories(options.outDir);
    int status = run(options);
    if (options.smoke)
        std::filesystem::remove_all(options.outDir);
    return status;
}
