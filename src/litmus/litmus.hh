/**
 * @file
 * Litmus-test representation.
 *
 * A litmus test (§3.2) is a small multi-threaded program with an initial
 * state and a final-state condition, used to catalogue which relaxed
 * behaviours an architecture allows. This reproduction extends the classic
 * format with the paper's exception machinery: per-thread exception
 * handlers, pended interrupts at labelled program points (the Isla
 * construct of §5.1), initial exception level, and GIC EOImode.
 */

#ifndef REX_LITMUS_LITMUS_HH
#define REX_LITMUS_LITMUS_HH

#include <array>
#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "events/event.hh"
#include "isa/assembler.hh"
#include "isa/register.hh"

namespace rex {

/**
 * Memory addresses of locations: location i lives at (i + 1) * 0x1000.
 * Address 0 (and any other unmapped address) faults with a translation
 * abort, which is how fault tests (`MP+dmb.sy+fault`) trigger handlers.
 */
inline constexpr std::uint64_t kLocationStride = 0x1000;

/**
 * Parser input bounds. Litmus tests are tiny by construction (the
 * paper's largest uses 4 threads and a handful of locations); these
 * caps exist so a malformed or hostile input — a five-billion thread
 * id, a megabyte program — is a clean diagnostic instead of an
 * allocation blow-up. They bound what rexd will accept over the wire,
 * so keep docs/SERVER.md in sync when changing them.
 */
inline constexpr std::size_t kMaxThreads = 16;
inline constexpr std::size_t kMaxLocations = 64;
inline constexpr std::size_t kMaxProgramInstructions = 1024;

/** The address of location @p loc. */
inline constexpr std::uint64_t
locationAddress(LocationId loc)
{
    return (static_cast<std::uint64_t>(loc) + 1) * kLocationStride;
}

/** Map an address back to a location; nullopt when unmapped. */
std::optional<LocationId> addressToLocation(std::uint64_t address,
                                            std::size_t num_locations);

/** One thread of a litmus test. */
struct LitmusThread {
    /** Main program. */
    isa::Program program;

    /** Exception handler; empty when the thread takes no exceptions.
     *  A handler ending in ERET resumes the main program; a handler
     *  without ERET terminates the thread (as in the paper's tests). */
    isa::Program handler;

    /** Initial register values. */
    std::array<std::uint64_t, isa::kNumRegs> initRegs{};

    /** Initial exception level (PSTATE.EL). */
    int initialEl = 0;

    /** Initial interrupt mask (PSTATE.I); false = interrupts enabled. */
    bool initialMasked = false;

    /** GIC EOImode for this PE (EOImode=1 splits drop/deactivate). */
    bool eoiMode1 = false;

    /**
     * When set, an asynchronous interrupt is pended at this label of the
     * main program ("interrupt at=L", §5.1); the thread takes it exactly
     * there.
     */
    std::optional<std::string> interruptAt;

    /** INTID of the pended interrupt (for interruptAt). */
    std::uint32_t interruptIntid = 0;

    /**
     * True when this thread may receive SGIs: the enumerator considers
     * executions where a generated SGI targeting this thread is taken at
     * each unmasked program point (and executions where it is not taken).
     * Set automatically by the parser when the thread has a handler and
     * the test generates SGIs.
     */
    bool sgiReceiver = false;
};

/** One conjunct of the final-state condition. */
struct CondAtom {
    enum class Kind : std::uint8_t {
        Register,  //!< tid:Xn = value
        Memory,    //!< *loc = value
    };
    Kind kind = Kind::Register;
    ThreadId tid = 0;
    isa::RegId reg = 0;
    LocationId loc = 0;
    std::uint64_t value = 0;
};

/** The final-state condition: a conjunction of atoms. */
struct Condition {
    std::vector<CondAtom> atoms;
};

/** A complete litmus test. */
struct LitmusTest {
    std::string name;
    std::string description;

    /**
     * The verbatim text this test was parsed from (either format);
     * empty for tests constructed programmatically. This is what makes
     * a test re-parseable in another process: the engine's supervised
     * (worker-pool) mode ships it over the job IPC instead of trying to
     * serialise the parsed structure.
     */
    std::string sourceText;

    std::vector<LitmusThread> threads;

    /** Location names, indexed by LocationId. */
    std::vector<std::string> locations;

    /** Initial memory values, indexed by LocationId. */
    std::vector<std::uint64_t> initValues;

    /** The interesting final state. */
    Condition finalCond;

    /** Architectural intent under the baseline model: is the final state
     *  observable? */
    bool expectedAllowed = false;

    /**
     * Expected verdicts under named model variants, where they differ
     * from or refine the baseline (the paper's param-refs columns).
     * Keys: "base", "ExS", "SEA_R", "SEA_W", "SEA_RW".
     */
    std::map<std::string, bool> variantAllowed;

    /** Find a location id by name; fatal() when absent. */
    LocationId locationId(const std::string &name) const;

    /** Find-or-create a location id by name: the first named gets the
     *  lowest id. fatal() beyond kMaxLocations. Both parsers build
     *  their location table with this. */
    LocationId internLocation(const std::string &name);

    /** Grow threads to hold thread @p tid; fatal() when @p tid is not
     *  below kMaxThreads. */
    void ensureThread(std::size_t tid);

    /** True when any thread's code writes ICC_SGI1R_EL1. */
    bool generatesSgis() const;
};

/**
 * The checks every parsed test passes, whichever format it came from:
 * each condition atom names a thread the test has. fatal() otherwise,
 * so a condition no execution can be judged against is refused rather
 * than answered.
 */
void checkParsed(const LitmusTest &test);

/**
 * The name of the final-state value @p atom constrains: "T:Xn" for a
 * register of thread T, "*x" for memory location x. Conditions,
 * outcome keys and outcome listings all spell a value this way.
 */
std::string atomName(const LitmusTest &test, const CondAtom &atom);

/**
 * The final value @p source holds where @p place points (its value is
 * not read). A source is any object with
 *   std::uint64_t finalReg(ThreadId tid, isa::RegId reg) const;
 *   std::uint64_t finalMemValue(LocationId loc) const;
 * a CandidateExecution on the axiomatic side, the op::Machine on the
 * operational one.
 */
template <typename Source>
std::uint64_t
finalValue(const CondAtom &place, const Source &source)
{
    if (place.kind == CondAtom::Kind::Register)
        return source.finalReg(place.tid, place.reg);
    return source.finalMemValue(place.loc);
}

/** Does the final state of @p source satisfy @p cond? */
template <typename Source>
bool
conditionHolds(const Condition &cond, const Source &source)
{
    for (const CondAtom &atom : cond.atoms) {
        if (finalValue(atom, source) != atom.value)
            return false;
    }
    return true;
}

/**
 * The outcome of a test: the final-state projection both semantics
 * report, so that the model can run as a test oracle on an
 * implementation's outcomes (§5.1). Its fields are the registers the
 * condition names plus every memory location, sorted by name, each
 * once; its key spells the values as "name=value;" per field. The
 * operational explorer and the axiomatic enumeration both build their
 * outcome sets from these bytes, which is what makes the soundness
 * hammer's subset comparison meaningful.
 */
class FinalState
{
  public:
    explicit FinalState(const LitmusTest &test);

    /** One named value of the outcome. */
    struct Field {
        std::string name;
        /** Where the value lives; the atom's value is unused. */
        CondAtom place;
    };

    const std::vector<Field> &fields() const { return _fields; }

    /** Write the outcome key of @p source into @p out (cleared first). */
    template <typename Source>
    void
    key(const Source &source, std::string &out) const
    {
        out.clear();
        for (const Field &field : _fields) {
            char digits[std::numeric_limits<std::uint64_t>::digits10 + 1];
            char *end = std::to_chars(digits, digits + sizeof(digits),
                                      finalValue(field.place, source)).ptr;
            out += field.name;
            out += '=';
            out.append(digits, end);
            out += ';';
        }
    }

  private:
    std::vector<Field> _fields;
};

} // namespace rex

#endif // REX_LITMUS_LITMUS_HH
