/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * The degradation paths this PR adds (cache entries going corrupt,
 * sink writes failing, pool spawns failing, sockets dying) are worth
 * nothing if they are merely written — they must be exercised. The
 * injector arms named failure points from a spec string and answers
 * shouldFail() at each site with a deterministic pseudo-random
 * decision, so tests and CI can replay exact failure sequences.
 *
 * Spec syntax (env REX_FAULT_SPEC, or FaultInjector::configure()):
 *
 *   point:probability:seed[,point:probability:seed...]
 *
 * e.g. REX_FAULT_SPEC="cache-write:1.0:7,sock-send:0.25:42"
 *
 * Points: cache-read, cache-write, sink-write, pool-spawn,
 * sock-accept, sock-send, worker-crash, worker-hang. Probability is in
 * [0, 1]; seed is a uint64.
 *
 * Determinism: each point keeps its own call counter k, and the k-th
 * call fails iff splitmix64(seed + k) maps below probability — the
 * per-point decision *sequence* is a pure function of (seed,
 * probability), independent of wall clock or ASLR. Under concurrency
 * the assignment of decisions to callers follows arrival order, but
 * the multiset of decisions over any N calls is fixed.
 *
 * Cost when unarmed (the production case): one relaxed atomic load
 * per site. Injected failures are counted per point so tests can
 * assert the failure path actually ran.
 *
 * What each armed point does is decided at the site, not here; the
 * contract (degrade, never hang or corrupt) is:
 *   cache-read    entry unreadable -> cache miss
 *   cache-write   entry published torn -> checksum rejects it later
 *   sink-write    JSONL record dropped (counted), never a torn line
 *   pool-spawn    task runs inline on the submitting thread
 *   sock-accept   accepted connection closed immediately
 *   sock-send     send fails -> peer sees a truncated response
 *   worker-crash  supervised worker raises SIGSEGV mid-job ->
 *                 CrashedWorker verdict, daemon unharmed
 *   worker-hang   supervised worker spins without polling -> SIGKILLed
 *                 at the hard deadline (deadline + kill grace)
 *
 * The worker-* points are consulted in the supervising PARENT at
 * dispatch time (src/engine/supervisor.cc), and the decision travels to
 * the worker in the job frame. Consulting them in the workers would
 * break determinism: each fork()ed worker would carry its own copy of
 * the injector with counters frozen at fork time, so every respawned
 * worker would replay decision k=0 and the global decision sequence
 * would depend on crash/respawn timing.
 */

#ifndef REX_ENGINE_FAULTINJECT_HH
#define REX_ENGINE_FAULTINJECT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rex::engine {

/** The named injection sites. */
enum class FaultPoint : std::size_t {
    CacheRead = 0,
    CacheWrite,
    SinkWrite,
    PoolSpawn,
    SockAccept,
    SockSend,
    WorkerCrash,
    WorkerHang,
    kCount,
};

/** Spec name of @p point ("cache-read", ...). */
const char *faultPointName(FaultPoint point);

/** The process-wide fault injector. */
class FaultInjector
{
  public:
    /** The singleton, configured from REX_FAULT_SPEC at first use. */
    static FaultInjector &instance();

    /**
     * (Re)configure from @p spec; "" disarms everything. Malformed
     * clauses are warned about and skipped. Counters reset. Intended
     * for tests and process startup — arming new points while other
     * threads are mid-shouldFail() is safe (all fields are atomics)
     * but the exact cutover call is unspecified.
     */
    void configure(const std::string &spec);

    /** Should the call at @p point fail? Counts the call either way. */
    bool
    shouldFail(FaultPoint point)
    {
        if (!_anyArmed.load(std::memory_order_relaxed))
            return false;
        return shouldFailSlow(point);
    }

    /** True when @p point has a non-zero probability armed. */
    bool armed(FaultPoint point) const;

    /** Calls made to @p point since the last configure(). */
    std::uint64_t checked(FaultPoint point) const;

    /** Failures injected at @p point since the last configure(). */
    std::uint64_t injected(FaultPoint point) const;

  private:
    FaultInjector();

    bool shouldFailSlow(FaultPoint point);

    struct Point {
        std::atomic<bool> armed{false};
        std::atomic<double> probability{0.0};
        std::atomic<std::uint64_t> seed{0};
        std::atomic<std::uint64_t> calls{0};
        std::atomic<std::uint64_t> injected{0};
    };

    std::atomic<bool> _anyArmed{false};
    Point _points[static_cast<std::size_t>(FaultPoint::kCount)];
};

/** Shorthand for FaultInjector::instance(). */
inline FaultInjector &
faultInjector()
{
    return FaultInjector::instance();
}

} // namespace rex::engine

#endif // REX_ENGINE_FAULTINJECT_HH
