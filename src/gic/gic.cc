#include "gic/gic.hh"

#include "base/logging.hh"

namespace rex::gic {

const char *
intStateName(IntState state)
{
    switch (state) {
      case IntState::Inactive:      return "Inactive";
      case IntState::Pending:       return "Pending";
      case IntState::Active:        return "Active";
      case IntState::ActivePending: return "Active&Pending";
    }
    return "?";
}

IntState
Redistributor::state(std::uint32_t intid) const
{
    auto it = _states.find(intid);
    return it == _states.end() ? IntState::Inactive : it->second;
}

std::array<IntState, kNumSgis>
Redistributor::sgiStates() const
{
    std::array<IntState, kNumSgis> out;
    out.fill(IntState::Inactive);
    for (const auto &[intid, state] : _states) {
        if (intid >= kNumSgis)
            break;
        out[intid] = state;
    }
    return out;
}

void
Redistributor::pend(std::uint32_t intid)
{
    switch (state(intid)) {
      case IntState::Inactive:
        _states[intid] = IntState::Pending;
        break;
      case IntState::Active:
        _states[intid] = IntState::ActivePending;
        break;
      case IntState::Pending:
      case IntState::ActivePending:
        // Only a single extra instance may be buffered; further asserts
        // collapse into the existing pending state.
        break;
    }
}

void
Redistributor::clearPending(std::uint32_t intid)
{
    switch (state(intid)) {
      case IntState::Pending:
        _states[intid] = IntState::Inactive;
        break;
      case IntState::ActivePending:
        _states[intid] = IntState::Active;
        break;
      default:
        break;
    }
}

void
Redistributor::setPending(std::uint32_t intid)
{
    pend(intid);
}

bool
Redistributor::deliverable(std::uint32_t intid) const
{
    auto it = _priorities.find(intid);
    std::uint8_t prio = it == _priorities.end() ? kDefaultPriority
                                                : it->second;
    return prio < _priorityMask && prio < _runningPriority;
}

std::uint32_t
Redistributor::highestPendingDeliverable() const
{
    std::uint32_t best = kSpuriousIntid;
    std::uint8_t best_prio = kIdlePriority;
    for (const auto &[intid, state] : _states) {
        if (state != IntState::Pending && state != IntState::ActivePending)
            continue;
        // An Active&Pending interrupt's buffered instance is masked by
        // its own active priority until deactivation, so it is not
        // re-deliverable here.
        if (state == IntState::ActivePending)
            continue;
        if (!deliverable(intid))
            continue;
        auto it = _priorities.find(intid);
        std::uint8_t prio = it == _priorities.end() ? kDefaultPriority
                                                    : it->second;
        if (prio < best_prio || best == kSpuriousIntid) {
            best = intid;
            best_prio = prio;
        }
    }
    return best;
}

bool
Redistributor::irqPending() const
{
    return highestPendingDeliverable() != kSpuriousIntid;
}

std::uint32_t
Redistributor::acknowledge()
{
    std::uint32_t intid = highestPendingDeliverable();
    if (intid == kSpuriousIntid)
        return kSpuriousIntid;
    _states[intid] = IntState::Active;
    auto it = _priorities.find(intid);
    std::uint8_t prio = it == _priorities.end() ? kDefaultPriority
                                                : it->second;
    _priorityStack.push_back(_runningPriority);
    _runningPriority = prio;
    return intid;
}

void
Redistributor::priorityDrop(std::uint32_t intid)
{
    (void)intid;  // GICv3 drops in acknowledge order, not by INTID.
    if (_priorityStack.empty()) {
        warn("GIC: priority drop with no active acknowledge");
        return;
    }
    _runningPriority = _priorityStack.back();
    _priorityStack.pop_back();
}

void
Redistributor::deactivate(std::uint32_t intid)
{
    switch (state(intid)) {
      case IntState::Active:
        _states[intid] = IntState::Inactive;
        break;
      case IntState::ActivePending:
        // The buffered instance re-pends immediately (§7.4).
        _states[intid] = IntState::Pending;
        break;
      default:
        warn("GIC: deactivating a non-active interrupt");
        break;
    }
}

void
Redistributor::setPriority(std::uint32_t intid, std::uint8_t priority)
{
    _priorities[intid] = priority;
}

void
Redistributor::setPriorityMask(std::uint8_t mask)
{
    _priorityMask = mask;
}

Gic::Gic(std::size_t num_pes)
    : _redists(num_pes)
{
}

Redistributor &
Gic::redistributor(std::size_t pe)
{
    rexAssert(pe < _redists.size(), "GIC: PE index out of range");
    return _redists[pe];
}

const Redistributor &
Gic::redistributor(std::size_t pe) const
{
    rexAssert(pe < _redists.size(), "GIC: PE index out of range");
    return _redists[pe];
}

void
Gic::sendSgi(const sem::SgiRequest &request, std::uint32_t sender)
{
    std::uint64_t mask = request.targetMask(_redists.size(), sender);
    for (std::size_t pe = 0; pe < _redists.size(); ++pe) {
        if ((mask >> pe) & 1)
            _redists[pe].pend(request.intid);
    }
}

} // namespace rex::gic
