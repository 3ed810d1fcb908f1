#include "harness/runner.hh"

#include <chrono>
#include <memory>
#include <optional>

#include "axiomatic/checker.hh"
#include "axiomatic/enumerate.hh"
#include "base/strings.hh"
#include "cat/catmodel.hh"
#include "catc/cache.hh"
#include "catc/exec.hh"
#include "harness/table.hh"
#include "operational/runner.hh"

namespace rex::harness {

namespace {

std::string
verdictName(bool allowed)
{
    return allowed ? "Allowed" : "Forbidden";
}

std::string
condString(const LitmusTest &test)
{
    std::string out;
    for (std::size_t i = 0; i < test.finalCond.atoms.size(); ++i) {
        const CondAtom &atom = test.finalCond.atoms[i];
        if (i)
            out += " & ";
        if (atom.kind == CondAtom::Kind::Register) {
            out += format("%d:%s=%llu", atom.tid,
                          isa::regName(atom.reg).c_str(),
                          static_cast<unsigned long long>(atom.value));
        } else {
            out += format("*%s=%llu", test.locations[atom.loc].c_str(),
                          static_cast<unsigned long long>(atom.value));
        }
    }
    return out;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
hashBytes(std::uint64_t hash, const std::string &text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** The expected verdict of @p test under @p variant (by name). */
bool
expectedVerdict(const LitmusTest &test, const std::string &variant,
                bool model_allowed)
{
    if (variant == "base")
        return test.expectedAllowed;
    if (test.variantAllowed.count(variant))
        return test.variantAllowed.at(variant);
    return model_allowed;
}

} // namespace

std::uint64_t
FigureOptions::seedFor(const std::string &test_name,
                       const std::string &profile_name) const
{
    std::uint64_t hash = 0xcbf29ce484222325ull ^ seed;
    hash = hashBytes(hash, test_name);
    hash ^= 0x9E3779B97F4A7C15ull;
    hash = hashBytes(hash, profile_name);
    // Finalize so adjacent base seeds give unrelated streams; never 0
    // (xorshift RNGs have a fixed point there).
    std::uint64_t out = splitmix64(hash);
    return out ? out : 1;
}

std::string
reproduceFigure(const LitmusTest &test, const FigureOptions &options,
                engine::Engine &engine)
{
    std::string out;
    out += "=== " + test.name + " ===\n";
    if (!test.description.empty())
        out += test.description + "\n";
    out += "final: " + condString(test) + "\n";

    // Expand into independent jobs, each returning the one string cell
    // it is responsible for; the block is assembled in fixed order
    // afterwards, so output does not depend on the schedule.
    const std::vector<op::CoreProfile> devices =
        options.hwSim ? op::CoreProfile::paperDevices()
                      : std::vector<op::CoreProfile>{};
    const std::size_t num_devices = devices.size();
    const std::size_t num_variants = options.variants.size();
    // Job layout: [0] base verdict, [1..D] hw-sim cells,
    // [D+1..D+V] variant verdicts, [D+V+1] optional cat cross-check.
    const std::size_t jobs =
        1 + num_devices + num_variants + (options.catCrossCheck ? 1 : 0);

    std::vector<std::string> cells =
        engine.map(jobs, [&](std::size_t i) -> std::string {
            if (i == 0)
                return verdictName(
                    engine.verdict(test, ModelParams::base()).observable);
            if (i <= num_devices) {
                const op::CoreProfile &profile = devices[i - 1];
                auto start = std::chrono::steady_clock::now();
                op::Runner runner(
                    profile, options.seedFor(test.name, profile.name));
                op::RunStats stats =
                    runner.run(test, options.runsPerDevice);
                engine::JobRecord record;
                record.kind = "hwsim";
                record.test = test.name;
                record.variant = profile.name;
                record.runs = stats.runs;
                record.observed = stats.observed;
                record.wallMicros = static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
                engine.results().append(record);
                return stats.cell();
            }
            if (i <= num_devices + num_variants) {
                const ModelParams &variant =
                    options.variants[i - num_devices - 1];
                return verdictName(
                    engine.verdict(test, variant).observable);
            }
            // Cat-vs-compiled cross-check: one job, same single-pass
            // early-exit order as the legacy serial path, but on the
            // staged enumeration — per (combo, variant) the compiled
            // program is folded once and shared by every witness.
            auto start = std::chrono::steady_clock::now();
            const cat::CatModel &model = cat::CatModel::shipped();
            bool agree = true;
            const std::size_t num_checked = options.variants.size();
            std::vector<std::shared_ptr<const catc::FoldPlan>> plans;
            for (const ModelParams &variant : options.variants)
                plans.push_back(catc::planForCheck(variant));
            std::vector<std::optional<catc::FoldedProgram>> folds(
                num_checked);
            std::vector<std::size_t> fold_combo(num_checked, 0);
            CandidateEnumerator enumerator(test);
            enumerator.forEachStaged(
                [&](CandidateExecution &cand,
                    const CandidateEnumerator::StagedInfo &info) {
                for (std::size_t v = 0; v < num_checked; ++v) {
                    const ModelParams &variant = options.variants[v];
                    bool compiled_consistent = false;
                    // The coherence pre-filter is exactly the internal
                    // (SC-per-location) axiom, which no variant
                    // relaxes: an incoherent candidate is rejected
                    // outright.
                    if (info.coherent) {
                        if (!folds[v])
                            folds[v].emplace(*plans[v], cand);
                        else if (fold_combo[v] != info.comboIndex)
                            folds[v]->refold(cand);
                        fold_combo[v] = info.comboIndex;
                        compiled_consistent =
                            folds[v]->runFast(cand).consistent;
                    }
                    if (compiled_consistent !=
                            model.check(cand, variant).consistent) {
                        agree = false;
                        return false;
                    }
                }
                return true;
            });
            engine::JobRecord record;
            record.kind = "cat-crosscheck";
            record.test = test.name;
            record.verdict = agree ? "agree" : "DISAGREE";
            record.wallMicros = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count());
            engine.results().append(record);
            return record.verdict;
        });

    out += format("model (base): %s   [architectural intent: %s]\n",
                  cells[0].c_str(),
                  verdictName(test.expectedAllowed).c_str());

    if (options.hwSim) {
        Table hw;
        hw.header({"device (simulated)", "hw-sim refs"});
        for (std::size_t d = 0; d < num_devices; ++d)
            hw.row({devices[d].name, cells[1 + d]});
        out += hw.render();
    }

    Table params;
    params.header({"variant", "model", "expected"});
    for (std::size_t v = 0; v < num_variants; ++v) {
        const ModelParams &variant = options.variants[v];
        std::string expected = "-";
        if (variant.name() == "base") {
            expected = verdictName(test.expectedAllowed);
        } else if (test.variantAllowed.count(variant.name())) {
            expected = verdictName(test.variantAllowed.at(variant.name()));
        }
        params.row({variant.name(), cells[1 + num_devices + v], expected});
    }
    out += params.render();

    if (options.catCrossCheck) {
        out += format("cat-vs-native cross-check: %s\n",
                      cells.back().c_str());
    }
    return out;
}

std::string
reproduceFigure(const LitmusTest &test, const FigureOptions &options)
{
    return reproduceFigure(test, options, engine::Engine::shared());
}

std::string
suiteMatrix(const std::vector<const LitmusTest *> &tests,
            engine::Engine &engine)
{
    const std::vector<ModelParams> variants = ModelParams::paperVariants();
    const std::size_t num_variants = variants.size();

    // One job per (test, variant) cell; reassembled row-major below.
    std::vector<char> verdicts = engine.map(
        tests.size() * num_variants, [&](std::size_t i) -> char {
            const LitmusTest *test = tests[i / num_variants];
            const ModelParams &variant = variants[i % num_variants];
            return engine.isAllowed(*test, variant) ? 'A' : 'F';
        });

    Table table;
    table.header({"test", "expected", "base", "ExS", "SEA_R", "SEA_W",
                  "SEA_RW", "ok"});
    std::size_t mismatches = 0;
    for (std::size_t t = 0; t < tests.size(); ++t) {
        const LitmusTest *test = tests[t];
        std::vector<std::string> row;
        row.push_back(test->name);
        row.push_back(test->expectedAllowed ? "A" : "F");
        bool ok = true;
        for (std::size_t v = 0; v < num_variants; ++v) {
            bool allowed = verdicts[t * num_variants + v] == 'A';
            row.push_back(allowed ? "A" : "F");
            if (allowed !=
                    expectedVerdict(*test, variants[v].name(), allowed))
                ok = false;
        }
        if (!ok)
            ++mismatches;
        row.push_back(ok ? "yes" : "MISMATCH");
        table.row(std::move(row));
    }
    return table.render() +
        format("%zu mismatches out of %zu tests\n", mismatches,
               tests.size());
}

std::string
suiteMatrix(const std::vector<const LitmusTest *> &tests)
{
    return suiteMatrix(tests, engine::Engine::shared());
}

} // namespace rex::harness
