/**
 * @file
 * libFuzzer harness for the litmus parser (litmus/parser.hh).
 *
 * Rejected inputs throw FatalError — that is the parser's contract and
 * not a finding. Anything else (ASan/UBSan trap, uncaught exception,
 * crash, hang) is. When parsing succeeds, the parsed test is
 * re-serialised through its program printers, and its final state
 * (FinalState fields, outcome key and condition) is built over the
 * test's initial values, so the accepting path is exercised past the
 * parse itself: every atom the parser accepts must name a register or
 * location the test has.
 */

#include <cstddef>
#include <cstdint>
#include <string>

#include "base/logging.hh"
#include "litmus/parser.hh"

namespace {

/** The test's initial state, read as a final-state source. */
struct InitialState {
    const rex::LitmusTest &test;

    std::uint64_t
    finalReg(rex::ThreadId tid, rex::isa::RegId reg) const
    {
        return test.threads[static_cast<std::size_t>(tid)].initRegs[reg];
    }

    std::uint64_t
    finalMemValue(rex::LocationId loc) const
    {
        return test.initValues[loc];
    }
};

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    std::string text(reinterpret_cast<const char *>(data), size);
    try {
        rex::LitmusTest test = rex::parseLitmus(text);
        for (const rex::LitmusThread &thread : test.threads)
            (void)thread.program.toString();
        const InitialState initial{test};
        std::string key;
        rex::FinalState(test).key(initial, key);
        (void)rex::conditionHolds(test.finalCond, initial);
    } catch (const rex::FatalError &) {
        // Malformed input: the documented rejection path.
    }
    return 0;
}
