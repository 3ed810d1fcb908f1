/**
 * @file
 * Structured results sink: one JSONL record per engine job.
 *
 * Every job the batch engine runs (axiomatic verdict, hw-sim profile
 * run, cat cross-check) appends one line of JSON to the configured
 * results file, so downstream tooling can aggregate verdicts, wall
 * times, and cache behaviour without scraping table output. The schema
 * is documented in docs/FORMAT.md; every record carries every field
 * (irrelevant ones are zero/empty) so consumers never branch on
 * presence.
 *
 * Appends are serialised under a mutex and each record is one write, so
 * lines from parallel jobs never interleave. Record order follows job
 * completion and is therefore schedule-dependent; consumers must key on
 * (test, kind, variant), not line number.
 */

#ifndef REX_ENGINE_RESULTS_HH
#define REX_ENGINE_RESULTS_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace rex::engine {

/** Escape @p text for inclusion in a JSON string literal. */
std::string jsonEscape(std::string_view text);

/**
 * Install SIGINT/SIGTERM handlers that flush every open stdio stream
 * (and with them every open results sink — each sink is a FILE*), then
 * restore the default disposition and re-raise, so the process still
 * dies with the conventional signal exit status. Idempotent.
 *
 * This is the batch-harness interrupt path: a long check_file or bench
 * run killed mid-flight keeps every JSONL record written so far, ending
 * on a complete line (appends are single whole-line writes). rexd does
 * NOT use this — it drains gracefully instead (see server/server.hh).
 */
void installFlushOnExitSignals();

/** One engine job's outcome. */
struct JobRecord {
    /** "verdict" or "hwsim". */
    std::string kind = "verdict";

    /** Litmus test name. */
    std::string test;

    /** Model variant ("base", "SEA_R", ...) or device profile name. */
    std::string variant;

    /** "Allowed"/"Forbidden". */
    std::string verdict;

    /** Candidate executions enumerated (verdict jobs). */
    std::uint64_t candidates = 0;

    /** Model-consistent candidates (verdict jobs). */
    std::uint64_t consistent = 0;

    /** Consistent candidates satisfying the condition (verdict jobs). */
    std::uint64_t witnesses = 0;

    /** Randomised runs performed (hwsim jobs). */
    std::uint64_t runs = 0;

    /** Runs observing the final state (hwsim jobs). */
    std::uint64_t observed = 0;

    /** Job wall time in microseconds. */
    std::uint64_t wallMicros = 0;

    /** True when the verdict came from the cache. */
    bool cacheHit = false;

    /** "axiom:3->7->12" summary for forbidden verdicts. */
    std::string forbidding;

    /**
     * Budget axis that stopped the job ("deadline", "candidates",
     * "cancelled"); empty for completed jobs. Non-empty goes
     * with verdict "ExhaustedBudget", and the count fields above become
     * partial statistics.
     */
    std::string exhaustedAxis;

    /** Pipeline stage reached when the budget tripped or the worker
     *  crashed ("plan", "enumerate", "merge"); empty for completed
     *  jobs. */
    std::string stage;

    /**
     * Fatal signal that killed the supervised worker ("SIGSEGV",
     * "SIGKILL", "exit:N"); empty unless the verdict is CrashedWorker
     * or Quarantined (then: the last crash's signal). Goes with
     * partial count fields, like exhaustedAxis.
     */
    std::string workerSignal;

    /** Crash-ledger count for this job's (test, variant) key; non-zero
     *  only with verdict CrashedWorker or Quarantined. */
    std::uint64_t crashes = 0;

    /**
     * `rex-cont-v1` resume token (engine/continuation.hh); non-empty
     * only on an ExhaustedBudget record from a resumable check. POSTing
     * it back to /check (or passing its state to Engine::verdictRecord
     * as the resume) continues the enumeration where this record
     * stopped.
     */
    std::string continuation;

    /**
     * Render as a single JSON object (no trailing newline).
     *
     * The budget fields (exhausted_axis, stage) and the supervision
     * fields (signal, stage, crashes) are the exceptions to the
     * every-record-carries-every-field rule: they are emitted only
     * when exhaustedAxis / workerSignal is non-empty, so runs that
     * never trip a budget or crash a worker render byte-identically
     * to the pre-governor, pre-supervision schema.
     */
    std::string toJson() const;
};

/** Thread-safe JSONL writer; disabled until open() succeeds. */
class ResultsSink
{
  public:
    ResultsSink() = default;
    ~ResultsSink();

    ResultsSink(const ResultsSink &) = delete;
    ResultsSink &operator=(const ResultsSink &) = delete;

    /** Truncate and open @p path; warns and stays disabled on failure. */
    void open(const std::string &path);

    bool enabled() const { return _out != nullptr; }
    const std::string &path() const { return _path; }

    /** Append one record (no-op when disabled). */
    void append(const JobRecord &record);

    /** Flush buffered output to disk (no-op when disabled). */
    void flush();

    /** Flush and close the file; enabled() is false afterwards. */
    void close();

    /** Records appended so far. */
    std::uint64_t records() const { return _records.load(); }

    /** Records lost to short writes or injected sink faults. */
    std::uint64_t droppedRecords() const { return _dropped.load(); }

  private:
    std::mutex _mutex;
    std::FILE *_out = nullptr;
    std::string _path;
    std::atomic<std::uint64_t> _records{0};
    std::atomic<std::uint64_t> _dropped{0};
    bool _warnedDrop = false;  //!< guarded by _mutex
};

} // namespace rex::engine

#endif // REX_ENGINE_RESULTS_HH
