/**
 * @file
 * CatModel: a memory model loaded from a .cat file, usable as a drop-in
 * alternative to the native model of src/axiomatic/model.hh.
 *
 * The repository ships the paper's Figure 9 model as
 * models/aarch64-exceptions.cat (with its cos.cat / arm-common.cat
 * includes), embedded in the library at build time. The catc compiler
 * lowers it into the production checker; this interpreter is the
 * independent reference, and tests cross-validate both against the
 * native implementation over the entire litmus library.
 */

#ifndef REX_CAT_CATMODEL_HH
#define REX_CAT_CATMODEL_HH

#include <map>
#include <span>
#include <string>
#include <string_view>

#include "axiomatic/model.hh"
#include "axiomatic/params.hh"
#include "cat/ast.hh"
#include "cat/eval.hh"

namespace rex::cat {

/** The flag assignment a ModelParams induces for cat evaluation. */
std::map<std::string, bool> flagsFor(const ModelParams &params);

/** One models/ file, embedded in the library at build time. */
struct ShippedFile {
    std::string_view name;  //!< file name, e.g. "cos.cat"
    std::string_view text;  //!< its exact bytes
};

/** Every shipped model file, sorted by name. Generated from
 *  models/\*.cat by src/CMakeLists.txt, so no model path is ever
 *  opened at run time. */
std::span<const ShippedFile> shippedFiles();

/** The embedded text of the shipped file @p name; fatal() when no
 *  shipped file has that name. */
std::string_view shippedText(std::string_view name);

/** A parsed cat model; includes resolve against the shipped files. */
class CatModel
{
  public:
    /** Parse @p source, splicing in its includes. */
    static CatModel fromSource(std::string_view source);

    /** Parse the shipped file @p name ("aarch64-base.cat"). */
    static CatModel fromShipped(std::string_view name);

    /** The shipped aarch64-exceptions.cat, parsed once per process. */
    static const CatModel &shipped();

    /** Model name from the leading string of the file. */
    const std::string &name() const { return _file.modelName; }

    /** The parsed (include-flattened) AST — what compilers consume. */
    const CatFile &file() const { return _file; }

    /**
     * Check one candidate, producing the same ModelResult shape as the
     * native checkConsistent (failedAxiom = first failed check's name).
     */
    ModelResult check(const CandidateExecution &candidate,
                      const ModelParams &params) const;

    /** Raw evaluation with all check outcomes. */
    EvalResult evaluate(const CandidateExecution &candidate,
                        const ModelParams &params) const;

  private:
    CatFile _file;
};

} // namespace rex::cat

#endif // REX_CAT_CATMODEL_HH
