#include "litmus/litmus.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/strings.hh"

namespace rex {

std::optional<LocationId>
addressToLocation(std::uint64_t address, std::size_t num_locations)
{
    if (address == 0 || address % kLocationStride != 0)
        return std::nullopt;
    std::uint64_t index = address / kLocationStride - 1;
    if (index >= num_locations)
        return std::nullopt;
    return static_cast<LocationId>(index);
}

LocationId
LitmusTest::locationId(const std::string &name) const
{
    for (LocationId i = 0; i < locations.size(); ++i) {
        if (locations[i] == name)
            return i;
    }
    fatal("unknown location '" + name + "' in test " + this->name);
}

LocationId
LitmusTest::internLocation(const std::string &name)
{
    for (LocationId i = 0; i < locations.size(); ++i) {
        if (locations[i] == name)
            return i;
    }
    if (locations.size() >= kMaxLocations)
        fatal(format("too many locations (max %zu): %s", kMaxLocations,
                     name.c_str()));
    locations.push_back(name);
    initValues.push_back(0);
    return static_cast<LocationId>(locations.size() - 1);
}

void
LitmusTest::ensureThread(std::size_t tid)
{
    if (tid >= kMaxThreads)
        fatal(format("thread id %zu out of range (max %zu threads)", tid,
                     kMaxThreads));
    if (threads.size() <= tid)
        threads.resize(tid + 1);
}

bool
LitmusTest::generatesSgis() const
{
    for (const LitmusThread &thread : threads) {
        for (const isa::Instruction &inst : thread.program.code) {
            if (inst.op == isa::Opcode::Msr &&
                    inst.sysreg == isa::Sysreg::ICC_SGI1R_EL1) {
                return true;
            }
        }
        for (const isa::Instruction &inst : thread.handler.code) {
            if (inst.op == isa::Opcode::Msr &&
                    inst.sysreg == isa::Sysreg::ICC_SGI1R_EL1) {
                return true;
            }
        }
    }
    return false;
}

void
checkParsed(const LitmusTest &test)
{
    for (const CondAtom &atom : test.finalCond.atoms) {
        if (atom.kind == CondAtom::Kind::Register &&
                static_cast<std::size_t>(atom.tid) >= test.threads.size()) {
            fatal(format("condition atom %s names thread %d, but %s has "
                         "%zu thread(s)", atomName(test, atom).c_str(),
                         atom.tid, test.name.c_str(), test.threads.size()));
        }
    }
}

std::string
atomName(const LitmusTest &test, const CondAtom &atom)
{
    if (atom.kind == CondAtom::Kind::Register)
        return std::to_string(atom.tid) + ":" + isa::regName(atom.reg);
    return "*" + test.locations[atom.loc];
}

FinalState::FinalState(const LitmusTest &test)
{
    for (const CondAtom &atom : test.finalCond.atoms) {
        if (atom.kind == CondAtom::Kind::Register)
            _fields.push_back({atomName(test, atom), atom});
    }
    for (LocationId loc = 0; loc < test.locations.size(); ++loc) {
        const CondAtom place{.kind = CondAtom::Kind::Memory, .loc = loc};
        _fields.push_back({atomName(test, place), place});
    }
    // A register named twice in the condition is one field.
    std::sort(_fields.begin(), _fields.end(),
              [](const Field &lhs, const Field &rhs) {
                  return lhs.name < rhs.name;
              });
    _fields.erase(std::unique(_fields.begin(), _fields.end(),
                              [](const Field &lhs, const Field &rhs) {
                                  return lhs.name == rhs.name;
                              }),
                  _fields.end());
}

} // namespace rex
