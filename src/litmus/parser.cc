#include "litmus/parser.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "base/strings.hh"
#include "litmus/herd_parser.hh"

namespace rex {

namespace {

bool
looksLikeLocationName(const std::string &text)
{
    if (text.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(text[0])) &&
            text[0] != '_') {
        return false;
    }
    return true;
}

/** Parse one init entry ("*x=0", "0:X1=x", "1:PSTATE.I=1", ...). */
void
parseInitEntry(LitmusTest &test, const std::string &entry)
{
    auto eq = entry.find('=');
    if (eq == std::string::npos)
        fatal("init entry without '=': " + entry);
    std::string lhs = trim(entry.substr(0, eq));
    std::string rhs = trim(entry.substr(eq + 1));

    if (startsWith(lhs, "*")) {
        std::string name = trim(lhs.substr(1));
        std::int64_t value;
        if (!parseInteger(rhs, value))
            fatal("bad memory init value: " + entry);
        LocationId loc = test.internLocation(name);
        test.initValues[loc] = static_cast<std::uint64_t>(value);
        return;
    }

    auto colon = lhs.find(':');
    if (colon == std::string::npos)
        fatal("bad init entry: " + entry);
    std::int64_t tid_value;
    if (!parseInteger(lhs.substr(0, colon), tid_value) || tid_value < 0)
        fatal("bad thread id in init entry: " + entry);
    std::size_t tid = static_cast<std::size_t>(tid_value);
    test.ensureThread(tid);
    LitmusThread &thread = test.threads[tid];
    std::string target = toUpper(trim(lhs.substr(colon + 1)));

    std::int64_t value;
    bool is_int = parseInteger(rhs, value);

    if (target == "PSTATE.EL" || target == "EL") {
        if (!is_int)
            fatal("bad EL init: " + entry);
        thread.initialEl = static_cast<int>(value);
        return;
    }
    if (target == "PSTATE.I" || target == "DAIF.I") {
        if (!is_int)
            fatal("bad mask init: " + entry);
        thread.initialMasked = value != 0;
        return;
    }
    if (target == "EOIMODE") {
        if (!is_int)
            fatal("bad EOImode init: " + entry);
        thread.eoiMode1 = value != 0;
        return;
    }

    auto reg = isa::parseReg(target);
    if (!reg)
        fatal("bad register in init entry: " + entry);
    if (is_int) {
        thread.initRegs[*reg] = static_cast<std::uint64_t>(value);
    } else if (looksLikeLocationName(rhs)) {
        LocationId loc = test.internLocation(rhs);
        thread.initRegs[*reg] = locationAddress(loc);
    } else {
        fatal("bad init value: " + entry);
    }
}

/** Parse one condition atom ("0:X2=0" or "*x=1"). */
CondAtom
parseCondAtom(LitmusTest &test, const std::string &text)
{
    auto eq = text.find('=');
    if (eq == std::string::npos)
        fatal("condition atom without '=': " + text);
    std::string lhs = trim(text.substr(0, eq));
    std::string rhs = trim(text.substr(eq + 1));
    std::int64_t value;
    if (!parseInteger(rhs, value))
        fatal("bad condition value: " + text);

    CondAtom atom;
    atom.value = static_cast<std::uint64_t>(value);
    if (startsWith(lhs, "*")) {
        atom.kind = CondAtom::Kind::Memory;
        atom.loc = test.internLocation(trim(lhs.substr(1)));
        return atom;
    }
    auto colon = lhs.find(':');
    if (colon == std::string::npos)
        fatal("bad condition atom: " + text);
    // Bounded before the narrowing to ThreadId, which would wrap
    // 4294967296 to thread 0.
    std::int64_t tid;
    if (!parseInteger(lhs.substr(0, colon), tid) || tid < 0 ||
            static_cast<std::uint64_t>(tid) >= kMaxThreads)
        fatal("bad thread id in condition atom: " + text);
    auto reg = isa::parseReg(trim(lhs.substr(colon + 1)));
    if (!reg)
        fatal("bad register in condition atom: " + text);
    atom.kind = CondAtom::Kind::Register;
    atom.tid = static_cast<ThreadId>(tid);
    atom.reg = *reg;
    return atom;
}

void
parseCondition(LitmusTest &test, const std::string &text)
{
    // Accept '&' and '/\' as conjunction.
    std::string normalised;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '\\') {
            normalised += '&';
            ++i;
        } else {
            normalised += text[i];
        }
    }
    for (const std::string &atom : split(normalised, '&')) {
        std::string t = trim(atom);
        if (!t.empty())
            test.finalCond.atoms.push_back(parseCondAtom(test, t));
    }
}

} // namespace

LitmusTest
parseLitmus(const std::string &text)
{
    // Classic herdtools files ("AArch64 <name>" header) are dispatched
    // to the herd-format parser; everything else uses the native
    // sectioned format documented in this header.
    if (looksLikeHerdFormat(text)) {
        LitmusTest herd = parseHerdLitmus(text);
        herd.sourceText = text;
        return herd;
    }

    LitmusTest test;
    test.sourceText = text;

    enum class Section { None, Thread, Handler };
    Section section = Section::None;
    std::size_t section_tid = 0;
    std::string body;
    bool have_cond = false;

    auto flushSection = [&]() {
        if (section == Section::None)
            return;
        test.ensureThread(section_tid);
        isa::Program program = isa::assemble(body);
        if (program.code.size() > kMaxProgramInstructions) {
            fatal(format("program of thread %zu too large: %zu "
                         "instructions (max %zu)",
                         section_tid, program.code.size(),
                         kMaxProgramInstructions));
        }
        if (section == Section::Thread)
            test.threads[section_tid].program = std::move(program);
        else
            test.threads[section_tid].handler = std::move(program);
        section = Section::None;
        body.clear();
    };

    for (const std::string &raw_line : split(text, '\n')) {
        // Strip comments.
        std::string line = raw_line;
        auto comment = line.find("//");
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        std::string stripped = trim(line);
        if (stripped.empty())
            continue;

        std::string lower = toLower(stripped);
        auto headerValue = [&](const char *key) -> std::optional<std::string> {
            std::string prefix = std::string(key);
            if (startsWith(lower, prefix))
                return trim(stripped.substr(prefix.size()));
            return std::nullopt;
        };

        if (auto v = headerValue("name:")) {
            flushSection();
            test.name = *v;
            continue;
        }
        if (auto v = headerValue("desc:")) {
            flushSection();
            if (!test.description.empty())
                test.description += " ";
            test.description += *v;
            continue;
        }
        if (auto v = headerValue("init:")) {
            flushSection();
            for (const std::string &entry : split(*v, ';')) {
                std::string e = trim(entry);
                if (!e.empty())
                    parseInitEntry(test, e);
            }
            continue;
        }
        if (startsWith(lower, "thread ") || startsWith(lower, "handler ")) {
            flushSection();
            bool is_thread = startsWith(lower, "thread ");
            std::string rest = trim(stripped.substr(is_thread ? 7 : 8));
            if (!rest.empty() && rest.back() == ':')
                rest.pop_back();
            std::int64_t tid;
            if (!parseInteger(trim(rest), tid) || tid < 0)
                fatal("bad thread id in section header: " + stripped);
            section = is_thread ? Section::Thread : Section::Handler;
            section_tid = static_cast<std::size_t>(tid);
            continue;
        }
        if (startsWith(lower, "interrupt ")) {
            flushSection();
            // "interrupt N at LABEL [intid K]"
            std::vector<std::string> words = splitWhitespace(stripped);
            if (words.size() < 4 || toLower(words[2]) != "at")
                fatal("bad interrupt directive: " + stripped);
            std::int64_t tid;
            if (!parseInteger(words[1], tid) || tid < 0)
                fatal("bad thread id in interrupt directive: " + stripped);
            test.ensureThread(static_cast<std::size_t>(tid));
            LitmusThread &thread = test.threads[
                static_cast<std::size_t>(tid)];
            thread.interruptAt = words[3];
            if (words.size() >= 6 && toLower(words[4]) == "intid") {
                std::int64_t intid;
                if (!parseInteger(words[5], intid) || intid < 0)
                    fatal("bad intid: " + stripped);
                thread.interruptIntid = static_cast<std::uint32_t>(intid);
            }
            continue;
        }
        if (auto v = headerValue("allowed:")) {
            flushSection();
            test.expectedAllowed = true;
            parseCondition(test, *v);
            have_cond = true;
            continue;
        }
        if (auto v = headerValue("forbidden:")) {
            flushSection();
            test.expectedAllowed = false;
            parseCondition(test, *v);
            have_cond = true;
            continue;
        }
        if (startsWith(lower, "variant ")) {
            flushSection();
            auto colon = stripped.find(':');
            if (colon == std::string::npos)
                fatal("bad variant line: " + stripped);
            std::string variant = trim(stripped.substr(8, colon - 8));
            std::string verdict = toLower(trim(stripped.substr(colon + 1)));
            if (verdict != "allowed" && verdict != "forbidden")
                fatal("bad variant verdict: " + stripped);
            test.variantAllowed[variant] = verdict == "allowed";
            continue;
        }

        // Anything else is section body.
        if (section == Section::None)
            fatal("statement outside any section: " + stripped);
        body += stripped;
        body += '\n';
    }
    flushSection();

    if (test.name.empty())
        fatal("litmus test without a name");
    if (!have_cond)
        fatal("litmus test without a final condition: " + test.name);
    if (test.threads.empty())
        fatal("litmus test without threads: " + test.name);
    checkParsed(test);

    // Mark SGI receivers: threads with a handler, no explicit interrupt
    // point, and some SGI generated somewhere in the test.
    if (test.generatesSgis()) {
        for (LitmusThread &thread : test.threads) {
            if (!thread.handler.code.empty() && !thread.interruptAt)
                thread.sgiReceiver = true;
        }
    }

    return test;
}

LitmusTest
parseLitmusFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open litmus file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parseLitmus(text.str());
}

} // namespace rex
