#include "harness/runner.hh"

#include <chrono>

#include "axiomatic/checker.hh"
#include "base/hash.hh"
#include "base/strings.hh"
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
        out += atomName(test, atom) + "=" + std::to_string(atom.value);
    }
    return out;
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
    std::uint64_t hash = fnv1a(kFnvOffset ^ seed, test_name);
    hash ^= kSplitmixGamma;
    hash = fnv1a(hash, profile_name);
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
    // [D+1..D+V] variant verdicts.
    const std::size_t jobs = 1 + num_devices + num_variants;

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
            const ModelParams &variant =
                options.variants[i - num_devices - 1];
            return verdictName(engine.verdict(test, variant).observable);
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
