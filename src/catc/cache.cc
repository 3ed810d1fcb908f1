#include "catc/cache.hh"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "catc/compile.hh"
#include "catc/exec.hh"
#include "engine/cache.hh"

namespace rex::catc {

namespace {

std::atomic<std::uint64_t> gCompiles{0};
std::atomic<std::uint64_t> gHits{0};
std::atomic<std::uint64_t> gMisses{0};

std::mutex gMutex;

std::unordered_map<std::string, std::shared_ptr<const Program>> &
programs()
{
    static auto *map =
        new std::unordered_map<std::string,
                               std::shared_ptr<const Program>>();
    return *map;
}

} // namespace

CompileStats
compileStats()
{
    CompileStats stats;
    stats.compiles = gCompiles.load(std::memory_order_relaxed);
    stats.hits = gHits.load(std::memory_order_relaxed);
    stats.misses = gMisses.load(std::memory_order_relaxed);
    return stats;
}

std::string
programId(const ModelParams &params)
{
    return std::string("catc1:") + engine::kModelRevision + ":" +
           engine::canonicalParamsText(params);
}

std::shared_ptr<const Program>
stagedProgram(const ModelParams &params)
{
    const std::string id = programId(params);
    {
        std::lock_guard<std::mutex> lock(gMutex);
        auto it = programs().find(id);
        if (it != programs().end()) {
            gHits.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    gMisses.fetch_add(1, std::memory_order_relaxed);

    // Compile outside the lock; a racing thread may compile too, in
    // which case the first insert wins and the loser's copy is dropped
    // (the counters record every actual compile).
    auto program = std::make_shared<Program>(compileNative(params, false));
    program->id = id;
    gCompiles.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(gMutex);
    auto [it, inserted] = programs().emplace(id, std::move(program));
    return it->second;
}

namespace {

/** A plan bundled with the program it analyses, so the shared_ptr
 *  keeps both alive (plans borrow their program). */
struct PlanEntry {
    std::shared_ptr<const Program> program;
    FoldPlan plan;

    explicit PlanEntry(std::shared_ptr<const Program> p)
        : program(std::move(p)), plan(*program) {}
};

std::unordered_map<std::string, std::shared_ptr<const PlanEntry>> &
plans()
{
    static auto *map =
        new std::unordered_map<std::string,
                               std::shared_ptr<const PlanEntry>>();
    return *map;
}

} // namespace

std::shared_ptr<const FoldPlan>
planForCheck(const ModelParams &params)
{
    const std::string id = programId(params);
    {
        std::lock_guard<std::mutex> lock(gMutex);
        auto it = plans().find(id);
        if (it != plans().end())
            return {it->second, &it->second->plan};
    }
    // Analyse outside the lock; first insert wins on a race.
    auto entry = std::make_shared<const PlanEntry>(stagedProgram(params));
    std::lock_guard<std::mutex> lock(gMutex);
    auto [it, inserted] = plans().emplace(id, std::move(entry));
    return {it->second, &it->second->plan};
}

} // namespace rex::catc
