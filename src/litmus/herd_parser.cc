#include "litmus/herd_parser.hh"

#include <cctype>

#include "base/logging.hh"
#include "base/strings.hh"
#include "isa/assembler.hh"

namespace rex {

namespace {

/** Strip an optional C-style type annotation ("uint64_t x" -> "x"). */
std::string
stripType(const std::string &lhs)
{
    auto tokens = splitWhitespace(lhs);
    return tokens.empty() ? lhs : tokens.back();
}

void
parseInitEntry(LitmusTest &test, const std::string &entry)
{
    auto eq = entry.find('=');
    if (eq == std::string::npos)
        fatal("herd init entry without '=': " + entry);
    std::string lhs = trim(entry.substr(0, eq));
    std::string rhs = trim(entry.substr(eq + 1));

    auto colon = lhs.find(':');
    if (colon != std::string::npos) {
        // Register binding "T:Xn=value".
        std::int64_t tid;
        if (!parseInteger(lhs.substr(0, colon), tid) || tid < 0)
            fatal("bad thread id in herd init entry: " + entry);
        test.ensureThread(static_cast<std::size_t>(tid));
        LitmusThread &thread = test.threads[static_cast<std::size_t>(tid)];
        std::string target = toUpper(trim(lhs.substr(colon + 1)));
        if (target == "PSTATE.EL" || target == "EL") {
            std::int64_t el;
            if (!parseInteger(rhs, el))
                fatal("bad EL in herd init entry: " + entry);
            thread.initialEl = static_cast<int>(el);
            return;
        }
        auto reg = isa::parseReg(target);
        if (!reg)
            fatal("bad register in herd init entry: " + entry);
        std::int64_t value;
        if (parseInteger(rhs, value)) {
            thread.initRegs[*reg] = static_cast<std::uint64_t>(value);
        } else {
            thread.initRegs[*reg] =
                locationAddress(test.internLocation(rhs));
        }
        return;
    }

    // Memory cell: "x=1", "*x=1", or "uint64_t x=1".
    std::string name = stripType(lhs);
    if (!name.empty() && name[0] == '*')
        name = trim(name.substr(1));
    std::int64_t value;
    if (!parseInteger(rhs, value))
        fatal("bad memory value in herd init entry: " + entry);
    LocationId loc = test.internLocation(name);
    test.initValues[loc] = static_cast<std::uint64_t>(value);
}

CondAtom
parseCondAtom(LitmusTest &test, const std::string &text)
{
    auto eq = text.find('=');
    if (eq == std::string::npos)
        fatal("herd condition atom without '=': " + text);
    std::string lhs = trim(text.substr(0, eq));
    std::string rhs = trim(text.substr(eq + 1));
    std::int64_t value;
    if (!parseInteger(rhs, value))
        fatal("bad herd condition value: " + text);

    CondAtom atom;
    atom.value = static_cast<std::uint64_t>(value);
    auto colon = lhs.find(':');
    if (colon != std::string::npos) {
        std::int64_t tid;
        if (!parseInteger(lhs.substr(0, colon), tid) || tid < 0 ||
                static_cast<std::uint64_t>(tid) >= kMaxThreads)
            fatal("bad thread id in herd condition atom: " + text);
        auto reg = isa::parseReg(trim(lhs.substr(colon + 1)));
        if (!reg)
            fatal("bad register in herd condition atom: " + text);
        atom.kind = CondAtom::Kind::Register;
        atom.tid = static_cast<ThreadId>(tid);
        atom.reg = *reg;
        return atom;
    }
    // Memory atom: "x=1" or "[x]=1".
    std::string name = lhs;
    if (!name.empty() && name.front() == '[' && name.back() == ']')
        name = trim(name.substr(1, name.size() - 2));
    if (!name.empty() && name[0] == '*')
        name = trim(name.substr(1));
    atom.kind = CondAtom::Kind::Memory;
    atom.loc = test.internLocation(name);
    return atom;
}

} // namespace

bool
looksLikeHerdFormat(const std::string &text)
{
    for (const std::string &raw : split(text, '\n')) {
        std::string line = trim(raw);
        if (line.empty() || startsWith(line, "(*") ||
                startsWith(line, "//")) {
            continue;
        }
        return startsWith(line, "AArch64 ") || startsWith(line, "AARCH64 ");
    }
    return false;
}

LitmusTest
parseHerdLitmus(const std::string &text)
{
    LitmusTest test;

    enum class Phase { Header, Init, Programs, Condition };
    Phase phase = Phase::Header;

    // Per-thread assembly accumulated from the column rows.
    std::vector<std::string> bodies;
    bool have_cond = false;

    for (const std::string &raw : split(text, '\n')) {
        std::string line = trim(raw);
        // Strip (* ... *) single-line comments and blank lines.
        if (line.empty() || startsWith(line, "(*"))
            continue;

        switch (phase) {
          case Phase::Header: {
            if (startsWith(toUpper(line), "AARCH64")) {
                test.name = trim(line.substr(7));
                continue;
            }
            if (line.front() == '"') {
                std::string desc = line;
                if (desc.front() == '"')
                    desc.erase(0, 1);
                if (!desc.empty() && desc.back() == '"')
                    desc.pop_back();
                test.description = desc;
                continue;
            }
            if (line.front() == '{') {
                // Init entries may share the brace lines:
                // "{ x=0; 0:X1=x; }" or "{ x=0;" ... "}".
                std::string rest = trim(line.substr(1));
                bool closed = !rest.empty() && rest.back() == '}';
                if (closed)
                    rest = trim(rest.substr(0, rest.size() - 1));
                for (const std::string &entry : split(rest, ';')) {
                    std::string e = trim(entry);
                    if (!e.empty())
                        parseInitEntry(test, e);
                }
                phase = closed ? Phase::Programs : Phase::Init;
                continue;
            }
            fatal("unexpected herd header line: " + line);
          }

          case Phase::Init: {
            std::string content = line;
            bool closed = content.back() == '}';
            if (closed)
                content = trim(content.substr(0, content.size() - 1));
            for (const std::string &entry : split(content, ';')) {
                std::string e = trim(entry);
                if (!e.empty())
                    parseInitEntry(test, e);
            }
            if (closed)
                phase = Phase::Programs;
            continue;
          }

          case Phase::Programs: {
            if (startsWith(line, "exists") || startsWith(line, "~exists") ||
                    startsWith(line, "forall") ||
                    startsWith(line, "locations")) {
                phase = Phase::Condition;
                // Fall through to condition handling below by
                // re-dispatching this line.
            } else {
                // A program row: columns separated by '|', ';'-terminated.
                std::string row = line;
                if (!row.empty() && row.back() == ';')
                    row.pop_back();
                std::vector<std::string> cells = split(row, '|');
                if (bodies.size() < cells.size())
                    bodies.resize(cells.size());
                bool is_header = trim(cells[0]).size() >= 2 &&
                    trim(cells[0])[0] == 'P';
                for (std::size_t t = 0; t < cells.size(); ++t) {
                    std::string cell = trim(cells[t]);
                    if (is_header || cell.empty())
                        continue;
                    bodies[t] += cell + "\n";
                }
                continue;
            }
            [[fallthrough]];
          }

          case Phase::Condition: {
            if (startsWith(line, "locations"))
                continue;  // display directive
            bool negated = false;
            std::string cond = line;
            if (startsWith(cond, "~exists")) {
                negated = true;
                cond = trim(cond.substr(7));
            } else if (startsWith(cond, "exists")) {
                cond = trim(cond.substr(6));
            } else if (startsWith(cond, "forall")) {
                fatal("herd 'forall' conditions are unsupported");
            }
            if (!cond.empty() && cond.front() == '(' &&
                    cond.back() == ')') {
                cond = trim(cond.substr(1, cond.size() - 2));
            }
            if (cond.find("\\/") != std::string::npos ||
                    cond.find("~(") != std::string::npos) {
                fatal("herd condition uses disjunction/negation; only "
                      "conjunctions are supported: " + cond);
            }
            // Split on /\ conjunctions.
            std::string normalised;
            for (std::size_t i = 0; i < cond.size(); ++i) {
                if (cond[i] == '/' && i + 1 < cond.size() &&
                        cond[i + 1] == '\\') {
                    normalised += '&';
                    ++i;
                } else {
                    normalised += cond[i];
                }
            }
            for (const std::string &atom : split(normalised, '&')) {
                std::string a = trim(atom);
                if (!a.empty()) {
                    test.finalCond.atoms.push_back(
                        parseCondAtom(test, a));
                }
            }
            test.expectedAllowed = !negated;
            have_cond = true;
            continue;
          }
        }
    }

    if (test.name.empty())
        fatal("herd litmus test without a name");
    if (!have_cond)
        fatal("herd litmus test without a condition: " + test.name);
    test.ensureThread(bodies.empty() ? 0 : bodies.size() - 1);
    for (std::size_t t = 0; t < bodies.size(); ++t) {
        test.threads[t].program = isa::assemble(bodies[t]);
        if (test.threads[t].program.code.size() >
                kMaxProgramInstructions) {
            fatal(format("program of P%zu too large: %zu instructions "
                         "(max %zu)",
                         t, test.threads[t].program.code.size(),
                         kMaxProgramInstructions));
        }
    }
    if (test.threads.empty())
        fatal("herd litmus test without threads: " + test.name);
    checkParsed(test);
    return test;
}

} // namespace rex
