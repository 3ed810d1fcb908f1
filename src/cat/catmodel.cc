#include "cat/catmodel.hh"

#include "base/logging.hh"
#include "cat/parser.hh"

namespace rex::cat {

namespace {

/**
 * Splice the shipped files' statements in place of each `include`, in
 * order, recursively. Flattening once at load time means evaluation
 * and compilation never resolve an include again.
 */
void
flattenIncludes(CatFile &file, int depth)
{
    if (depth > 16)
        fatal("cat include nesting too deep (include cycle?)");
    std::vector<Statement> flat;
    flat.reserve(file.statements.size());
    for (Statement &stmt : file.statements) {
        if (stmt.kind != Statement::Kind::Include) {
            flat.push_back(std::move(stmt));
            continue;
        }
        CatFile included =
            parseCat(std::string(shippedText(stmt.includePath)));
        flattenIncludes(included, depth + 1);
        for (Statement &inner : included.statements)
            flat.push_back(std::move(inner));
    }
    file.statements = std::move(flat);
}

} // namespace

std::map<std::string, bool>
flagsFor(const ModelParams &params)
{
    return {
        {"FEAT_ExS", params.featExS},
        {"EIS", params.eis},
        {"EOS", params.eos},
        {"SEA_R", params.seaR},
        {"SEA_W", params.seaW},
        {"FEAT_ETS2", params.featEts2},
        {"GIC", params.gicExtension},
    };
}

std::string_view
shippedText(std::string_view name)
{
    for (const ShippedFile &file : shippedFiles()) {
        if (file.name == name)
            return file.text;
    }
    fatal("no shipped cat file '" + std::string(name) + "'");
}

CatModel
CatModel::fromSource(std::string_view source)
{
    CatModel model;
    model._file = parseCat(std::string(source));
    flattenIncludes(model._file, 0);
    return model;
}

CatModel
CatModel::fromShipped(std::string_view name)
{
    return fromSource(shippedText(name));
}

const CatModel &
CatModel::shipped()
{
    static const CatModel *model =
        new CatModel(fromShipped("aarch64-exceptions.cat"));
    return *model;
}

EvalResult
CatModel::evaluate(const CandidateExecution &candidate,
                   const ModelParams &params) const
{
    // Includes were flattened at load time, so the evaluator never
    // needs a resolver.
    Evaluator evaluator(candidate, flagsFor(params), {});
    return evaluator.evaluateFile(_file);
}

ModelResult
CatModel::check(const CandidateExecution &candidate,
                const ModelParams &params) const
{
    EvalResult eval_result = evaluate(candidate, params);
    ModelResult result;
    result.consistent = eval_result.consistent;
    for (const CheckOutcome &outcome : eval_result.checks) {
        if (!outcome.passed) {
            result.failedAxiom = outcome.name;
            result.cycle = outcome.cycle;
            break;
        }
    }
    return result;
}

} // namespace rex::cat
