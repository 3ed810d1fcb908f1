/**
 * @file
 * libFuzzer harness for the verdict codecs that read input from outside
 * the process: parseContinuation() (clients hand tokens back through
 * rexd's `resume` member) and the verdict field reader
 * CachedVerdict::readFields() (cache entries on disk, worker replies),
 * plus the worker-reply decoder built on it.
 *
 * Rejection is a plain false. Whatever a decoder accepts must round-trip
 * exactly: a parsed token serializes back to the input, accepted field
 * lines write back to the bytes they were read from, and an accepted
 * reply encodes back to the frame. Anything else aborts as a finding.
 */

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "engine/cache.hh"
#include "engine/continuation.hh"
#include "engine/supervisor.hh"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace rex::engine;
    const std::string text(reinterpret_cast<const char *>(data), size);

    ContinuationState state;
    if (parseContinuation(text, state) &&
            serializeContinuation(state) != text) {
        std::abort();
    }

    // Field lines sit behind a header in both frames (a disk entry's
    // magic and checksum, a reply's magic and status), so read them at
    // each of the first three line starts.
    std::size_t start = 0;
    for (int line = 0; line < 3 && start <= text.size(); ++line) {
        std::size_t pos = start;
        if (const auto verdict = CachedVerdict::readFields(text, pos)) {
            std::string back;
            verdict->writeFields(back);
            if (back != std::string_view(text).substr(start, pos - start))
                std::abort();
        }
        const std::size_t eol = text.find('\n', start);
        if (eol == std::string::npos)
            break;
        start = eol + 1;
    }

    SupervisedOutcome reply;
    if (decodeWorkerReply(text, reply) && encodeWorkerReply(reply) != text)
        std::abort();
    return 0;
}
