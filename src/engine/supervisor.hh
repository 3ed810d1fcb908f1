/**
 * @file
 * Process-isolated worker supervision: crash containment, quarantine,
 * and hard deadlines for checking jobs.
 *
 * PR 4's governor made jobs *cooperatively* cancellable, but a
 * segfault, abort(), stack overflow, or non-polling spin loop inside
 * one candidate enumeration still takes down the whole process — for
 * rexd, the daemon and every concurrent request with it. The
 * supervisor closes that hole by running each checking job in one of a
 * pool of pre-forked worker processes:
 *
 *  - Jobs travel over a per-worker socketpair as length-prefixed
 *    frames (4-byte big-endian length + a line-oriented text payload,
 *    same idiom as the cache entry format); the worker answers with
 *    one response frame per job.
 *  - A worker that dies mid-job (SIGSEGV/SIGABRT/SIGBUS, OOM kill, a
 *    stack overflow's SIGSEGV) surfaces as EOF on its socket; the
 *    dispatcher reaps it with waitpid(), names WTERMSIG, and returns a
 *    Crashed outcome carrying the signal plus the partial stats the
 *    worker left in its shared-memory status page (a CrashContext in a
 *    MAP_SHARED page: test, variant, stage, live candidate counter —
 *    written lock-free by the child, read post-mortem by the parent).
 *  - Hard deadlines: when the job has a wall-clock budget, the parent
 *    poll()s with timeout deadline + killGraceMs and SIGKILLs a worker
 *    that blows through it — the non-cooperative backstop behind the
 *    governor's cooperative one. Without a deadline there is no hard
 *    kill (rexd's --max-deadline-ms cap is the way to guarantee one).
 *  - A per-(test, variant, model-revision) crash ledger — keyed by the
 *    verdict-cache key hash, which is exactly that triple — counts
 *    crashes; once a key reaches the quarantine threshold, further
 *    jobs for it are refused immediately with a Quarantined outcome
 *    instead of burning respawns on a deterministic crasher.
 *  - Dead worker slots respawn with capped exponential backoff, driven
 *    by a monitor thread that also reaps workers dying *between* jobs
 *    (e.g. an external kill -9) with per-pid non-blocking waitpid — no
 *    global SIGCHLD handler, so embedding programs keep their own
 *    child-management intact.
 *
 * The worker never touches the parent's cache, results sink, or thread
 * pool: it parses the shipped litmus source, runs the plain in-process
 * check single-threaded under an always-present Governor (unlimited
 * budgets change nothing — admit() without limits only counts), and
 * streams the verdict back. Cache lookup/store and JSONL emission stay
 * in the parent (engine/batch.cc), so supervised and in-thread modes
 * share one cache and one results schema.
 *
 * Fault injection: the worker-crash / worker-hang points are consulted
 * in the PARENT at dispatch time and the decision travels in the job
 * frame (see faultinject.hh for why), so injected crash sequences are
 * deterministic across respawns.
 */

#ifndef REX_ENGINE_SUPERVISOR_HH
#define REX_ENGINE_SUPERVISOR_HH

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/cache.hh"
#include "engine/crashctx.hh"
#include "engine/governor.hh"

namespace rex::engine {

/** Supervision parameters (surfaced as rexd --workers /
 *  --crash-quarantine / --kill-grace-ms and the harness --isolate). */
struct SupervisorConfig {
    /** Worker processes to pre-fork. */
    unsigned workers = 2;

    /** Crashes of one (test, variant, revision) key before it is
     *  quarantined; 0 disables quarantine. */
    unsigned crashQuarantine = 3;

    /** Grace window past the cooperative deadline before SIGKILL. */
    std::uint64_t killGraceMs = 2000;

    /** Respawn backoff after a crash: initial delay, doubling per
     *  consecutive crash of the same slot, capped. */
    std::uint64_t respawnBackoffMs = 50;
    std::uint64_t respawnBackoffMaxMs = 2000;

    /** Crash-ledger entry cap (LRU-evicted beyond it), so a stream of
     *  distinct crashing keys cannot grow the ledger without bound.
     *  An evicted quarantined key starts its strikes over — bounded
     *  memory is worth the occasional repeat sentence. 0 = unbounded. */
    std::uint64_t ledgerMaxEntries = 4096;
};

/** What the supervisor learned about one dispatched job. */
struct SupervisedOutcome {
    enum class Kind {
        Ok,          //!< worker returned a completed verdict
        Exhausted,   //!< the worker's cooperative budget tripped
        Crashed,     //!< worker died (or broke protocol) mid-job
        Quarantined, //!< ledger refused to dispatch a repeat crasher
    };

    Kind kind = Kind::Crashed;

    /** The verdict (Ok), or partial counters (Exhausted/Crashed). */
    CachedVerdict verdict;

    /** Budget axis / stage, Exhausted only (stage also on Crashed). */
    std::string exhaustedAxis;
    std::string stage;

    /** Fatal signal name ("SIGSEGV", "SIGKILL", "exit:N", ...) for
     *  Crashed; the last crash's signal for Quarantined. */
    std::string signal;

    /** Ledger crash count for the job's key (Crashed/Quarantined). */
    std::uint64_t crashes = 0;

    /** The worker's message when it refused the job (Crashed with
     *  signal "worker-error"). */
    std::string error;
};

/**
 * The worker's reply frame (`rex-verdict-ipc-v1`, docs/FORMAT.md) for
 * @p outcome: "status ok" (Ok), "status exhausted" plus its axis and
 * stage (Exhausted) or "status error" plus the message flattened to
 * one line (any other kind), with the verdict's field lines
 * (CachedVerdict::writeFields) after the status.
 */
std::string encodeWorkerReply(const SupervisedOutcome &outcome);

/**
 * Decode a reply frame into @p out: Ok and Exhausted as sent, an error
 * as Crashed with signal "worker-error". Strict, like the field codec:
 * an accepted frame encodes back to the same bytes.
 * @return false (with @p out untouched) on a malformed frame
 */
bool decodeWorkerReply(std::string_view payload, SupervisedOutcome &out);

/** A pre-forked worker-process pool plus its supervising state. */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorConfig config);
    ~Supervisor();

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /**
     * Run one checking job in a worker process, blocking until the
     * verdict arrives, the worker dies, or the hard deadline kills it.
     * Safe to call from any number of threads; callers queue on the
     * slot pool.
     *
     * @param sourceText litmus source (LitmusTest::sourceText) —
     *                   re-parsed inside the worker
     * @param testName   for crash attribution (the status page)
     * @param variant    ModelParams::byName key
     * @param ledgerKey  quarantine key; use VerdictKey::hashHex(),
     *                   which covers (test, variant, model revision)
     * @param budget     may be null/unlimited (no hard deadline then)
     */
    SupervisedOutcome run(const std::string &sourceText,
                          const std::string &testName,
                          const std::string &variant,
                          const std::string &ledgerKey,
                          const Budget *budget);

    const SupervisorConfig &config() const { return _config; }

    /** Configured slot count. */
    unsigned workers() const { return static_cast<unsigned>(_slots.size()); }

    /** Workers currently alive (the live-worker gauge). */
    unsigned liveWorkers() const;

    /** Worker crashes observed, total and broken down by signal name
     *  (sorted; for the /metrics exposition). */
    std::uint64_t crashes() const { return _crashes.load(); }
    std::vector<std::pair<std::string, std::uint64_t>>
    crashesBySignal() const;

    /** Workers re-forked after a death (initial spawns not counted). */
    std::uint64_t respawns() const { return _respawns.load(); }

    /** Quarantined verdicts served without dispatching. */
    std::uint64_t quarantinedServed() const
    {
        return _quarantinedServed.load();
    }

    /** Ledger keys at/over the quarantine threshold right now. */
    std::uint64_t quarantinedKeys() const;

    /** Keys currently tracked in the crash ledger (gauge). */
    std::uint64_t ledgerEntries() const;

    /** Ledger entries LRU-evicted by ledgerMaxEntries so far. */
    std::uint64_t ledgerEvictions() const
    {
        return _ledgerEvictions.load(std::memory_order_relaxed);
    }

    /** Candidate counters of busy workers, summed (progress gauge). */
    std::uint64_t liveCandidates() const;

  private:
    struct Slot {
        pid_t pid = -1;
        int fd = -1;                //!< parent end of the socketpair
        CrashContext *status = nullptr;  //!< this slot's shared page
        bool alive = false;
        bool busy = false;
        unsigned consecutiveCrashes = 0;
        std::chrono::steady_clock::time_point respawnAt{};
    };

    struct LedgerEntry {
        std::uint64_t crashes = 0;
        std::string lastSignal;

        /** Recency stamp (_ledgerSeq at last charge or quarantine
         *  lookup) driving LRU eviction. */
        std::uint64_t lastTouch = 0;
    };

    /** Fork slot @p index (monitor thread or ctor; _mutex held). */
    void spawnSlotLocked(std::size_t index);

    /** Mark slot @p index dead after a crash; schedules its respawn.
     *  (_mutex held.) */
    void retireSlotLocked(std::size_t index, const std::string &signal);

    /** Count one crash of @p signal against the stats (not the
     *  ledger). */
    void countCrash(const std::string &signal);

    /** Record a crash for @p ledgerKey; returns the new count. */
    std::uint64_t chargeLedger(const std::string &ledgerKey,
                               const std::string &signal);

    void monitorLoop();

    SupervisorConfig _config;

    mutable std::mutex _mutex;  //!< slots + spawn/retire state
    std::condition_variable _slotFree;
    std::vector<Slot> _slots;
    CrashContext *_statusPages = nullptr;  //!< one MAP_SHARED region
    bool _stopping = false;

    std::thread _monitor;
    std::condition_variable _monitorWake;

    mutable std::mutex _ledgerMutex;
    std::map<std::string, LedgerEntry> _ledger;
    std::uint64_t _ledgerSeq = 0;  //!< guarded by _ledgerMutex
    std::atomic<std::uint64_t> _ledgerEvictions{0};

    mutable std::mutex _crashMutex;
    std::map<std::string, std::uint64_t> _crashesBySignal;

    std::atomic<std::uint64_t> _crashes{0};
    std::atomic<std::uint64_t> _respawns{0};
    std::atomic<std::uint64_t> _quarantinedServed{0};
};

} // namespace rex::engine

#endif // REX_ENGINE_SUPERVISOR_HH
