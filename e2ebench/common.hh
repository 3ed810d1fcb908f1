/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, statistics,
 * metric and gate collection, and the in-memory span recorder used by
 * the traced run.
 */

#ifndef REXBENCH_COMMON_HH
#define REXBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <memory>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rexbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

/** Workload names, as BENCHMARK.json lists them. */
inline constexpr const char *kSuiteMatrix = "suite-matrix";
inline constexpr const char *kHammerRandom = "hammer-random";
inline constexpr const char *kRexdMix = "rexd-mix";

/** One invocation's settings. */
struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Smoke pass: every phase at a token size, no timing claims. */
    bool smoke = false;
    /** Where spans, run records and rexd scratch directories go. */
    std::string outDir;
    /** This executable (re-spawned for set-up probes). */
    std::string self;
    /** The rexd executable built next to this one. */
    std::string rexd;
    /** Engine jobs for the hammer: min(4, nproc). */
    unsigned hammerJobs = 1;
};

/** Sorted-copy quantile with linear interpolation; 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Named metrics in print order. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    /** The JSON object member list: "name": {"value": v, "unit": u}. */
    std::string json() const;
    const std::vector<std::pair<std::string, std::pair<double,
                                                       std::string>>> &
    entries() const
    {
        return _entries;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        _entries;
};

/** Correctness gates: any failure makes the run incorrect. */
class Gates
{
  public:
    void check(bool ok, const std::string &what);
    bool passed() const { return _failures.empty(); }

    /** Operations attempted and failed, for the result line. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::mutex _mutex;
    std::vector<std::string> _failures;
};

/** One recorded span: a timed call into a layer. */
struct Span {
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    /** Request or seed id the span belongs to. */
    std::uint64_t key = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Work units done inside (candidates, states, ...); 0 = none. */
    std::uint64_t count = 0;

    double ns() const { return static_cast<double>(endNs - startNs); }
};

/**
 * The span recorder. Disabled, it records nothing and costs one branch
 * per span; enabled, spans are kept in memory and written out once at
 * the end of the run.
 */
class Trace
{
  public:
    explicit Trace(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _epoch)
            .count();
    }

    std::uint64_t nextId() { return _nextId.fetch_add(1); }
    void record(const Span &span);

    /** Spans named @p name, in recording order. */
    std::vector<Span> named(const std::string &name) const;

    /** Durations (ns) of the spans named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write every span as one JSON line. */
    void write(const std::string &path) const;

    std::size_t size() const;

    /** Note one piece of work timed both untraced and traced. */
    void
    noteOverhead(double untracedSeconds, double tracedSeconds)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _untracedSeconds += untracedSeconds;
        _tracedSeconds += tracedSeconds;
    }

    /** Traced time over untraced time for the noted work, minus 1, %. */
    double
    overheadPct() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _untracedSeconds > 0
                   ? (_tracedSeconds / _untracedSeconds - 1.0) * 100.0
                   : 0;
    }

  private:
    bool _enabled;
    double _untracedSeconds = 0;
    double _tracedSeconds = 0;
    Clock::time_point _epoch = Clock::now();
    std::atomic<std::uint64_t> _nextId{1};
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/** RAII span; a no-op when the trace is null or disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Trace *trace, const char *name, std::uint64_t parent = 0,
               std::uint64_t key = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return _span.id; }
    void setCount(std::uint64_t count) { _span.count = count; }

  private:
    Trace *_trace;
    Span _span;
};

/** Peak resident set (VmHWM) of process @p pid ("self" or a pid), MB. */
double peakRssMb(const std::string &pid);

/** What a phase reports into. */
struct PhaseContext {
    const Options &options;
    /** Null when untraced. */
    Trace *trace;
    Metrics &e2e;
    Metrics &layers;
    Gates &gates;
};

/**
 * One phase of a run. Construction prepares inputs and, for the named
 * workload, runs the set-up probes; the run then calls slice() for
 * each of a few equal slices, interleaved with the other phases' so
 * every phase samples the whole run, and finish() once.
 */
class Phase
{
  public:
    virtual ~Phase() = default;
    virtual void slice(std::size_t index, std::size_t slices) = 0;
    /** Report the metrics; traced, also run the traced passes. */
    virtual void finish() = 0;
};

std::unique_ptr<Phase> makeSuitePhase(const PhaseContext &ctx);
std::unique_ptr<Phase> makeHammerPhase(const PhaseContext &ctx);
std::unique_ptr<Phase> makeRexdPhase(const PhaseContext &ctx);

/** Set-up probes: the work a child process does from exec to its
 *  first result, announced with probeReady(); with @p rss it goes on
 *  through one full unit of the workload and reports probeRss(). */
int suiteSetupProbe(bool rss);
int hammerSetupProbe(unsigned jobs, bool rss);
void probeReady();
void probeRss();

/** Set-up samples a run takes in each of its slices. */
inline constexpr int kSetupsPerSlice = 12;

/**
 * Set-up probes of the named workload: this executable spawned with
 * --setup-probe, timed from spawn to its first result. The run spawns
 * a batch in every slice, so the samples spread over the whole run
 * rather than one moment of the host's load.
 */
class SetupProbes
{
  public:
    SetupProbes(const Options &options, Gates &gates)
        : _options(options), _gates(gates)
    {}

    /** Spawn kSetupsPerSlice probes, one after another. */
    void batch();

    /** The median set-up time over every probe so far, seconds. */
    double seconds() const { return median(_samples); }

    /** One more probe that goes on through a unit of the workload: its
     *  peak RSS, MB. */
    double peakRssMb();

  private:
    /** Spawn one probe, wait for it, and put its stdout in @p output;
     *  the seconds from spawn to "ready". */
    double spawn(bool rss, std::string &output);

    const Options &_options;
    Gates &_gates;
    std::vector<double> _samples;
};

/** Print the per-seed outcome table hammer_outcomes.txt holds. */
int recordHammerOutcomes(std::uint64_t count, unsigned jobs);

/** rexd's flags as the last rexd-mix phase started it. */
extern std::string g_rexdFlags;

} // namespace rexbench

#endif // REXBENCH_COMMON_HH
