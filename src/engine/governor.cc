#include "engine/governor.hh"

#include "base/memtrack.hh"

namespace rex::engine {

const char *
budgetAxisName(BudgetAxis axis)
{
    switch (axis) {
      case BudgetAxis::None:       return "none";
      case BudgetAxis::Deadline:   return "deadline";
      case BudgetAxis::Candidates: return "candidates";
      case BudgetAxis::Memory:     return "memory";
      case BudgetAxis::Cancelled:  return "cancelled";
    }
    return "none";
}

Governor::Governor(Budget budget, const CancelToken *external,
                   std::atomic<std::uint64_t> *live)
    : _budget(budget), _external(external),
      _start(std::chrono::steady_clock::now()),
      _memBaseline(memtrack::currentBytes()), _live(live)
{
    // Arming the deadline inside the token means every polling site in
    // the stack — not just admit() — can trip it, bounding the phases
    // that run between candidate admissions (planning, folds, model
    // evaluation).
    if (_budget.deadlineMicros != 0) {
        _token.armDeadline(
            _start + std::chrono::microseconds(_budget.deadlineMicros));
    }
}

std::uint64_t
Governor::elapsedMicros() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - _start)
            .count());
}

bool
Governor::admit()
{
    if (_token.cancelled())
        return false;
    if (_external && _external->cancelled()) {
        _token.trip(BudgetAxis::Cancelled);
        return false;
    }
    // The deadline is folded into the token poll above (an armed token
    // reads the clock in cancelled()), so a candidate rejected on it
    // is never counted as visited. Memory is polled here, before
    // counting, for the same reason.
    if (_budget.maxHeapBytes != 0) {
        const std::uint64_t now = memtrack::currentBytes();
        if (now > _memBaseline &&
                now - _memBaseline > _budget.maxHeapBytes) {
            _token.trip(BudgetAxis::Memory);
            return false;
        }
    }
    // The candidate ceiling is the one exact axis: a single shared
    // fetch_add admits exactly min(total, maxCandidates) candidates no
    // matter how the shards interleave, so the partial count on a
    // ceiling trip is deterministic across REX_JOBS values.
    const std::uint64_t n =
        _admitted.fetch_add(1, std::memory_order_relaxed) + 1;
    if (_budget.maxCandidates != 0 && n > _budget.maxCandidates) {
        _admitted.fetch_sub(1, std::memory_order_relaxed);
        _token.trip(BudgetAxis::Candidates);
        return false;
    }
    if (_live)
        _live->fetch_add(1, std::memory_order_relaxed);
    return true;
}

} // namespace rex::engine
