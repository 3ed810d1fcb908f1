/**
 * @file
 * Soundness-hammer campaign driver.
 */

#include "gen/hammer.hh"

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "axiomatic/enumerate.hh"
#include "base/fsync.hh"
#include "base/logging.hh"
#include "catc/cache.hh"
#include "catc/exec.hh"
#include "engine/batch.hh"
#include "engine/cache.hh"
#include "isa/register.hh"
#include "litmus/parser.hh"
#include "operational/explorer.hh"
#include "operational/profile.hh"

namespace rex::gen {

namespace {

/**
 * The operational machine's Outcome::key() projection of a candidate:
 * the condition's registers plus every memory location, sorted by name.
 * Keeping the two sides' keys in lockstep is what makes the subset
 * comparison meaningful.
 */
std::string
outcomeKey(const LitmusTest &test, const CandidateExecution &cand)
{
    std::map<std::string, std::uint64_t> values;
    for (const CondAtom &atom : test.finalCond.atoms) {
        if (atom.kind != CondAtom::Kind::Register)
            continue;
        values[std::to_string(atom.tid) + ":" + isa::regName(atom.reg)] =
            cand.finalRegs[static_cast<std::size_t>(atom.tid)][atom.reg];
    }
    for (LocationId loc = 0; loc < test.locations.size(); ++loc)
        values["*" + test.locations[loc]] = cand.finalMemValue(loc);
    std::string out;
    for (const auto &[name, value] : values)
        out += name + "=" + std::to_string(value) + ";";
    return out;
}

// ---------------------------------------------------------------------
// Config fingerprinting (FNV-1a 64).
// ---------------------------------------------------------------------

struct Fnv {
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    }

    void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
    void
    str(const std::string &value)
    {
        u64(value.size());
        bytes(value.data(), value.size());
    }
};

} // namespace

Hammer::Hammer(HammerConfig config) : _config(std::move(config))
{
    rexAssert(_config.seedBegin <= _config.seedEnd,
              "hammer: seed range is inverted");
    rexAssert(_config.chunk > 0, "hammer: chunk size must be positive");
    if (_config.mode == Mode::Cycle) {
        _inventory = enumerateCycles(_config.cycle);
        rexAssert(!_inventory.empty(), "hammer: empty cycle inventory");
    }
}

std::uint64_t
Hammer::fingerprint() const
{
    Fnv fnv;
    fnv.u64(kGeneratorRevision);
    fnv.str(engine::kModelRevision);
    fnv.u64(_config.seedBegin);
    fnv.u64(_config.seedEnd);
    fnv.u64(static_cast<std::uint64_t>(_config.mode));

    const GenConfig &g = _config.gen;
    fnv.u64(g.threeThreadPercent);
    fnv.u64(g.maxOpsPerThread);
    fnv.u64(g.maxLoadsPerThread);
    fnv.u64(g.maxStoresPerThread);
    fnv.u64(g.exceptionPercent);
    fnv.u64((g.svc ? 1 : 0) | (g.interrupts ? 2 : 0) | (g.eret ? 4 : 0) |
            (g.rmw ? 8 : 0) | (g.pairs ? 16 : 0) | (g.acqRel ? 32 : 0) |
            (g.deps ? 64 : 0));

    fnv.u64(_config.cycle.maxEdges);
    fnv.u64(_config.cycle.maxThreads);
    fnv.u64(_config.cycle.maxLocations);

    fnv.str(_config.params.name());
    fnv.u64(_config.budget.deadlineMicros);
    fnv.u64(_config.budget.maxCandidates);
    fnv.u64(_config.budget.maxHeapBytes);
    fnv.u64(_config.maxStates);
    return fnv.hash;
}

GeneratedTest
Hammer::testForSeed(std::uint64_t seed) const
{
    if (_config.mode == Mode::Cycle)
        return synthesizeCycle(_inventory[seed % _inventory.size()]);
    return generate(seed, _config.gen);
}

SeedResult
Hammer::checkSeed(std::uint64_t seed) const
{
    SeedResult result = soundnessCheck(testForSeed(seed), _config);
    result.seed = seed;
    return result;
}

SeedResult
soundnessCheck(const GeneratedTest &generated, const HammerConfig &config)
{
    LitmusTest test = parseLitmus(generated.source);

    SeedResult result;
    result.features = generated.features;

    // Axiomatic side: every consistent candidate's outcome key, from
    // the compiled model folded once per trace combination (the same
    // program checkTest and rexd run). The governor bounds pathological
    // seeds; a trip means Skipped, not a verdict.
    engine::Governor governor(config.budget);
    const engine::CancelToken *token = governor.token();
    const std::shared_ptr<const catc::FoldPlan> plan =
        catc::planForCheck(config.params);

    std::set<std::string> allowed;
    bool aborted = false;
    std::optional<catc::FoldedProgram> folded;
    std::uint64_t folded_combo = 0;

    CandidateEnumerator enumerator(test, token);
    enumerator.forEachStaged(
        [&](CandidateExecution &cand,
            const CandidateEnumerator::StagedInfo &info) {
            if (!governor.admit()) {
                aborted = true;
                return false;
            }
            if (!info.coherent)
                return true;  // internal axiom rejects; key irrelevant
            if (!folded)
                folded.emplace(*plan, cand);
            else if (folded_combo != info.comboIndex)
                folded->refold(cand);
            folded_combo = info.comboIndex;
            const ModelResult model = folded->runFast(cand, token);
            if (model.aborted) {
                aborted = true;
                return false;
            }
            if (model.consistent)
                allowed.insert(outcomeKey(test, cand));
            return true;
        },
        token);

    if (aborted || governor.tripped()) {
        result.outcome = SeedOutcome::Skipped;
        return result;
    }

    // Operational side on the most relaxed profile (subsumes the
    // stricter profiles' reorderings).
    op::ExploreResult explored =
        op::explore(test, op::CoreProfile::maxRelaxed(), config.maxStates);
    if (explored.truncated) {
        result.outcome = SeedOutcome::Skipped;
        return result;
    }

    for (const std::string &key : explored.outcomes) {
        if (!allowed.count(key))
            result.violating.push_back(key);
    }
    result.outcome = result.violating.empty() ? SeedOutcome::Sound
                                              : SeedOutcome::Violation;
    return result;
}

CampaignSummary
Hammer::run(engine::Engine &engine) const
{
    std::uint64_t print = fingerprint();

    CampaignSummary summary;
    summary.seedBegin = _config.seedBegin;
    summary.seedEnd = _config.seedEnd;
    summary.nextSeed = _config.seedBegin;

    if (!_config.checkpointPath.empty()) {
        CampaignSummary resumed;
        if (loadCheckpoint(_config.checkpointPath, print, resumed))
            summary = resumed;
    }

    while (summary.nextSeed < summary.seedEnd) {
        if (_config.cancel && _config.cancel->cancelled())
            break;

        std::uint64_t begin = summary.nextSeed;
        std::uint64_t count =
            std::min<std::uint64_t>(_config.chunk, summary.seedEnd - begin);
        std::vector<SeedResult> results = engine.map(
            static_cast<std::size_t>(count), [&](std::size_t i) {
                return checkSeed(begin + static_cast<std::uint64_t>(i));
            });

        for (const SeedResult &result : results) {
            ++summary.tested;
            summary.features.merge(result.features);
            switch (result.outcome) {
              case SeedOutcome::Sound: ++summary.sound; break;
              case SeedOutcome::Skipped: ++summary.skipped; break;
              case SeedOutcome::Violation:
                summary.violationSeeds.push_back(result.seed);
                break;
            }
        }
        summary.nextSeed = begin + count;

        if (!_config.checkpointPath.empty())
            saveCheckpoint(_config.checkpointPath, print, summary);
    }
    return summary;
}

std::string
CampaignSummary::render() const
{
    std::string out = "rex-hammer campaign: seeds [" +
                      std::to_string(seedBegin) + ", " +
                      std::to_string(seedEnd) + ")";
    out += complete() ? "\n"
                      : " (partial: next seed " +
                            std::to_string(nextSeed) + ")\n";
    out += "tested " + std::to_string(tested) + ", sound " +
           std::to_string(sound) + ", skipped " + std::to_string(skipped) +
           ", violations " + std::to_string(violationSeeds.size()) + "\n";
    out += "features: " + features.toString() + "\n";
    if (!violationSeeds.empty()) {
        out += "violation seeds:";
        for (std::uint64_t seed : violationSeeds)
            out += " " + std::to_string(seed);
        out += "\n";
    }
    return out;
}

// ---------------------------------------------------------------------
// Checkpointing.
// ---------------------------------------------------------------------

namespace {

constexpr const char *kCheckpointMagic = "rex-hammer-checkpoint-v1";

} // namespace

bool
loadCheckpoint(const std::string &path, std::uint64_t fingerprint,
               CampaignSummary &out)
{
    std::ifstream in(path);
    if (!in.is_open())
        return false;

    auto malformed = [&]() {
        fatal("hammer: malformed checkpoint '" + path + "'");
    };

    std::string magic;
    if (!std::getline(in, magic))
        malformed();
    if (magic != kCheckpointMagic) {
        fatal("hammer: checkpoint '" + path +
              "' has unknown format '" + magic + "'");
    }

    std::string word;
    std::uint64_t stored_print = 0;
    if (!(in >> word >> stored_print) || word != "fingerprint")
        malformed();
    if (stored_print != fingerprint) {
        fatal("hammer: checkpoint '" + path +
              "' was written by a different campaign configuration");
    }

    CampaignSummary summary;
    if (!(in >> word >> summary.seedBegin >> summary.seedEnd) ||
            word != "range") {
        malformed();
    }
    if (!(in >> word >> summary.nextSeed) || word != "next")
        malformed();
    if (!(in >> word >> summary.tested >> summary.sound >>
            summary.skipped) ||
            word != "counts") {
        malformed();
    }

    Features &f = summary.features;
    if (!(in >> word >> f.svc >> f.eret >> f.interrupt >> f.handler >>
            f.barrier >> f.acqRel >> f.rmw >> f.dep >> f.pair >>
            f.threads3) ||
            word != "features") {
        malformed();
    }

    std::uint64_t violations = 0;
    if (!(in >> word >> violations) || word != "violations")
        malformed();
    for (std::uint64_t i = 0; i < violations; ++i) {
        std::uint64_t seed = 0;
        if (!(in >> seed))
            malformed();
        summary.violationSeeds.push_back(seed);
    }

    out = summary;
    return true;
}

void
saveCheckpoint(const std::string &path, std::uint64_t fingerprint,
               const CampaignSummary &summary)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out.is_open())
            fatal("hammer: cannot write checkpoint '" + tmp + "'");
        out << kCheckpointMagic << "\n";
        out << "fingerprint " << fingerprint << "\n";
        out << "range " << summary.seedBegin << " " << summary.seedEnd
            << "\n";
        out << "next " << summary.nextSeed << "\n";
        out << "counts " << summary.tested << " " << summary.sound << " "
            << summary.skipped << "\n";
        const Features &f = summary.features;
        out << "features " << f.svc << " " << f.eret << " " << f.interrupt
            << " " << f.handler << " " << f.barrier << " " << f.acqRel
            << " " << f.rmw << " " << f.dep << " " << f.pair << " "
            << f.threads3 << "\n";
        out << "violations " << summary.violationSeeds.size();
        for (std::uint64_t seed : summary.violationSeeds)
            out << " " << seed;
        out << "\n";
        out.flush();
        if (!out.good())
            fatal("hammer: write to checkpoint '" + tmp + "' failed");
    }
    // Make the data durable before the rename can point at it, and the
    // rename durable before run() treats this chunk as committed — a
    // host crash after an unsynced rename silently rewinds the
    // campaign to the previous checkpoint (or none at all).
    fsyncPath(tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("hammer: cannot rename checkpoint into '" + path + "'");
    fsyncParentDir(path);
}

} // namespace rex::gen
