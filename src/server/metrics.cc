#include "server/metrics.hh"

#include <cinttypes>

#include "base/strings.hh"
#include "catc/cache.hh"
#include "engine/batch.hh"

namespace rex::server {

void
LatencyHistogram::observe(std::uint64_t micros)
{
    double seconds = static_cast<double>(micros) / 1e6;
    std::size_t bucket = kBuckets.size();  // +Inf
    for (std::size_t i = 0; i < kBuckets.size(); ++i) {
        if (seconds <= kBuckets[i]) {
            bucket = i;
            break;
        }
    }
    _counts[bucket].fetch_add(1, std::memory_order_relaxed);
    _sumMicros.fetch_add(micros, std::memory_order_relaxed);
    _count.fetch_add(1, std::memory_order_relaxed);
}

std::string
LatencyHistogram::render(const std::string &name,
                         const std::string &labels) const
{
    std::string out;
    std::uint64_t cumulative = 0;
    std::string sep = labels.empty() ? "" : ",";
    for (std::size_t i = 0; i < kBuckets.size(); ++i) {
        cumulative += _counts[i].load(std::memory_order_relaxed);
        out += format("%s_bucket{%s%sle=\"%g\"} %" PRIu64 "\n",
                      name.c_str(), labels.c_str(), sep.c_str(),
                      kBuckets[i], cumulative);
    }
    cumulative += _counts[kBuckets.size()].load(std::memory_order_relaxed);
    out += format("%s_bucket{%s%sle=\"+Inf\"} %" PRIu64 "\n",
                  name.c_str(), labels.c_str(), sep.c_str(), cumulative);
    out += format("%s_sum{%s} %g\n", name.c_str(), labels.c_str(),
                  static_cast<double>(
                      _sumMicros.load(std::memory_order_relaxed)) / 1e6);
    out += format("%s_count{%s} %" PRIu64 "\n", name.c_str(),
                  labels.c_str(), _count.load(std::memory_order_relaxed));
    return out;
}

void
CountHistogram::observe(std::uint64_t value)
{
    std::size_t bucket = kBuckets.size();  // +Inf
    for (std::size_t i = 0; i < kBuckets.size(); ++i) {
        if (value <= kBuckets[i]) {
            bucket = i;
            break;
        }
    }
    _counts[bucket].fetch_add(1, std::memory_order_relaxed);
    _sum.fetch_add(value, std::memory_order_relaxed);
    _count.fetch_add(1, std::memory_order_relaxed);
}

std::string
CountHistogram::render(const std::string &name) const
{
    std::string out;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBuckets.size(); ++i) {
        cumulative += _counts[i].load(std::memory_order_relaxed);
        out += format("%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                      name.c_str(), kBuckets[i], cumulative);
    }
    cumulative += _counts[kBuckets.size()].load(std::memory_order_relaxed);
    out += format("%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
                  cumulative);
    out += format("%s_sum %" PRIu64 "\n", name.c_str(),
                  _sum.load(std::memory_order_relaxed));
    out += format("%s_count %" PRIu64 "\n", name.c_str(),
                  _count.load(std::memory_order_relaxed));
    return out;
}

void
Metrics::countResponse(int status)
{
    switch (status) {
      case 200: ++responses200; break;
      case 304: ++responses304; break;
      case 400: ++responses400; break;
      case 404: ++responses404; break;
      case 405: ++responses405; break;
      case 408: ++responses408; break;
      case 409: ++responses409; break;
      case 413: ++responses413; break;
      case 431: ++responses431; break;
      case 503: ++responses503; break;
      default: ++responses500; break;
    }
}

void
Metrics::countBudgetTrip(const std::string &axis)
{
    if (axis == "deadline")
        ++budgetTripsDeadline;
    else if (axis == "candidates")
        ++budgetTripsCandidates;
    else if (axis == "memory")
        ++budgetTripsMemory;
    else if (axis == "cancelled")
        ++budgetTripsCancelled;
}

std::string
Metrics::render(engine::Engine &engine) const
{
    std::string out;
    auto counter = [&](const char *name, const char *help,
                       std::uint64_t value) {
        out += format("# HELP %s %s\n# TYPE %s counter\n%s %" PRIu64 "\n",
                      name, help, name, name, value);
    };
    auto labelled = [&](const char *name, const char *labels,
                        std::uint64_t value) {
        out += format("%s{%s} %" PRIu64 "\n", name, labels, value);
    };

    out += "# HELP rexd_requests_total Requests handled, by route.\n"
           "# TYPE rexd_requests_total counter\n";
    labelled("rexd_requests_total", "route=\"check\"",
             requestsCheck.load());
    labelled("rexd_requests_total", "route=\"metrics\"",
             requestsMetrics.load());
    labelled("rexd_requests_total", "route=\"healthz\"",
             requestsHealth.load());
    labelled("rexd_requests_total", "route=\"other\"",
             requestsOther.load());

    out += "# HELP rexd_responses_total Responses sent, by status.\n"
           "# TYPE rexd_responses_total counter\n";
    labelled("rexd_responses_total", "code=\"200\"", responses200.load());
    labelled("rexd_responses_total", "code=\"304\"", responses304.load());
    labelled("rexd_responses_total", "code=\"400\"", responses400.load());
    labelled("rexd_responses_total", "code=\"404\"", responses404.load());
    labelled("rexd_responses_total", "code=\"405\"", responses405.load());
    labelled("rexd_responses_total", "code=\"408\"", responses408.load());
    labelled("rexd_responses_total", "code=\"409\"", responses409.load());
    labelled("rexd_responses_total", "code=\"413\"", responses413.load());
    labelled("rexd_responses_total", "code=\"431\"", responses431.load());
    labelled("rexd_responses_total", "code=\"500\"", responses500.load());
    labelled("rexd_responses_total", "code=\"503\"", responses503.load());

    out += "# HELP rexd_verdicts_total Verdicts served, by outcome.\n"
           "# TYPE rexd_verdicts_total counter\n";
    labelled("rexd_verdicts_total", "verdict=\"allowed\"",
             verdictsAllowed.load());
    labelled("rexd_verdicts_total", "verdict=\"forbidden\"",
             verdictsForbidden.load());
    labelled("rexd_verdicts_total", "verdict=\"exhausted_budget\"",
             verdictsExhausted.load());
    labelled("rexd_verdicts_total", "verdict=\"crashed_worker\"",
             verdictsCrashed.load());
    labelled("rexd_verdicts_total", "verdict=\"quarantined\"",
             verdictsQuarantined.load());

    out += "# HELP rexd_budget_trips_total Per-job budget trips, "
           "by axis.\n"
           "# TYPE rexd_budget_trips_total counter\n";
    labelled("rexd_budget_trips_total", "axis=\"deadline\"",
             budgetTripsDeadline.load());
    labelled("rexd_budget_trips_total", "axis=\"candidates\"",
             budgetTripsCandidates.load());
    labelled("rexd_budget_trips_total", "axis=\"memory\"",
             budgetTripsMemory.load());
    labelled("rexd_budget_trips_total", "axis=\"cancelled\"",
             budgetTripsCancelled.load());

    counter("rexd_cache_hits_total",
            "Verdict-cache hits across all requests.",
            engine.cache().hits());
    counter("rexd_cache_misses_total",
            "Verdict-cache misses across all requests.",
            engine.cache().misses());
    counter("rexd_cache_evictions_total",
            "On-disk verdict-cache entries evicted by the byte cap.",
            engine.cache().evictions());
    counter("rexd_cache_corrupt_total",
            "Corrupt on-disk verdict-cache entries detected and "
            "evicted.",
            engine.cache().corruptEvictions());
    counter("rexd_cache_mem_evictions_total",
            "In-memory verdict-cache entries evicted by the entry "
            "cap (the on-disk copy, if any, survives).",
            engine.cache().memEvictions());
    counter("rexd_queue_rejected_total",
            "Connections rejected with 503 by backpressure.",
            queueRejected.load());
    counter("rexd_read_timeouts_total",
            "Connections that timed out mid-request (the 408 path).",
            readTimeouts.load());
    counter("rexd_http_304_total",
            "Conditional requests answered 304 on the event loop, "
            "engine untouched.",
            http304.load());
    counter("rexd_idle_timeouts_total",
            "Keep-alive connections closed by the idle deadline.",
            idleTimeouts.load());
    counter("rexd_continuations_issued_total",
            "rex-cont-v1 continuation tokens issued on budget trips.",
            continuationsIssued.load());
    counter("rexd_resume_accepted_total",
            "Continuation tokens accepted and resumed.",
            resumeAccepted.load());
    counter("rexd_continuation_refused_total",
            "Continuation tokens refused: malformed, stale, or "
            "tampered.",
            continuationRefused.load());
    counter("rexd_enumerated_candidates_total",
            "Candidate executions enumerated by the engine, including "
            "in-flight checks.",
            engine.candidatesEnumerated());
    counter("rexd_results_dropped_total",
            "JSONL results records lost to sink write failures.",
            engine.results().droppedRecords());

    // Compiled-model (catc) series. Daemon-process scope: supervised
    // workers keep their own per-process compile caches, whose
    // activity is not aggregated here.
    const catc::CompileStats compiles = catc::compileStats();
    counter("rexd_model_compiles_total",
            "Cat-model bytecode compilations in this process.",
            compiles.compiles);
    counter("rexd_compile_cache_hits_total",
            "Compiled-program cache hits in this process.",
            compiles.hits);
    counter("rexd_compile_cache_misses_total",
            "Compiled-program cache misses in this process.",
            compiles.misses);

    // Supervision series render unconditionally (zeros with workers
    // disabled) so dashboards need not branch on server configuration;
    // only the per-signal breakdown is limited to observed signals.
    const engine::Supervisor *supervisor = engine.supervisor();
    out += "# HELP rexd_worker_crashes_total Supervised worker "
           "crashes, by fatal signal.\n"
           "# TYPE rexd_worker_crashes_total counter\n";
    out += format("rexd_worker_crashes_total %" PRIu64 "\n",
                  supervisor ? supervisor->crashes() : 0);
    if (supervisor) {
        for (const auto &[signal, count] :
                 supervisor->crashesBySignal()) {
            out += format("rexd_worker_crashes_total{signal=\"%s\"} %"
                          PRIu64 "\n",
                          signal.c_str(), count);
        }
    }
    counter("rexd_worker_respawns_total",
            "Worker processes re-forked after a death.",
            supervisor ? supervisor->respawns() : 0);
    counter("rexd_quarantined_total",
            "Quarantined verdicts served without dispatching a "
            "worker.",
            supervisor ? supervisor->quarantinedServed() : 0);
    counter("rexd_crash_ledger_evictions_total",
            "Crash-ledger entries evicted by the entry cap (LRU).",
            supervisor ? supervisor->ledgerEvictions() : 0);

    auto gauge = [&](const char *name, const char *help,
                     std::int64_t value) {
        out += format("# HELP %s %s\n# TYPE %s gauge\n%s %" PRId64 "\n",
                      name, help, name, name, value);
    };
    gauge("rexd_queue_depth", "Accepted connections awaiting a handler.",
          queueDepth.load());
    gauge("rexd_inflight_requests", "Requests currently being handled.",
          inflight.load());
    gauge("rexd_open_connections",
          "Connections currently open on the event loop.",
          openConnections.load());
    gauge("rexd_engine_jobs", "Engine worker threads.",
          static_cast<std::int64_t>(engine.jobs()));
    gauge("rexd_engine_pool_queue_depth",
          "Tasks queued in the engine's thread pool.",
          static_cast<std::int64_t>(engine.poolQueueDepth()));
    gauge("rexd_cache_entries", "Verdict-cache in-memory entries.",
          static_cast<std::int64_t>(engine.cache().entryCount()));
    gauge("rexd_cache_disk_bytes", "Verdict-cache on-disk bytes.",
          static_cast<std::int64_t>(engine.cache().diskBytes()));
    gauge("rexd_enumeration_live_candidates",
          "Candidates admitted so far by budgeted checks in flight.",
          static_cast<std::int64_t>(engine.liveCandidates()));
    gauge("rexd_workers_configured",
          "Supervised worker slots (0 = supervision disabled).",
          supervisor ? static_cast<std::int64_t>(supervisor->workers())
                     : 0);
    gauge("rexd_workers_live",
          "Supervised worker processes currently alive.",
          supervisor
              ? static_cast<std::int64_t>(supervisor->liveWorkers())
              : 0);
    gauge("rexd_quarantined_keys",
          "(test, variant) keys currently at the quarantine "
          "threshold.",
          supervisor
              ? static_cast<std::int64_t>(supervisor->quarantinedKeys())
              : 0);
    gauge("rexd_crash_ledger_entries",
          "(test, variant) keys tracked in the crash ledger.",
          supervisor
              ? static_cast<std::int64_t>(supervisor->ledgerEntries())
              : 0);

    out += "# HELP rexd_keepalive_requests_per_connection Requests "
           "served per keep-alive connection, recorded at close.\n"
           "# TYPE rexd_keepalive_requests_per_connection histogram\n";
    out += keepaliveRequests.render(
        "rexd_keepalive_requests_per_connection");

    out += "# HELP rexd_stage_seconds Pipeline-stage latency.\n"
           "# TYPE rexd_stage_seconds histogram\n";
    out += stageParse.render("rexd_stage_seconds", "stage=\"parse\"");
    out += stageCompile.render("rexd_stage_seconds", "stage=\"compile\"");
    out += stageEnumerate.render("rexd_stage_seconds",
                                 "stage=\"enumerate\"");
    out += stageCheck.render("rexd_stage_seconds", "stage=\"check\"");
    out += stageRequest.render("rexd_stage_seconds", "stage=\"request\"");
    return out;
}

} // namespace rex::server
