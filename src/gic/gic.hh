/**
 * @file
 * A model of the Arm Generic Interrupt Controller (GICv3), specialised —
 * as the paper's §7 is — to edge-triggered SGIs with physical delivery.
 *
 * The full GIC is a 950-page specification; this model implements exactly
 * the configuration the paper fixes: the per-(PE, INTID) handling state
 * machine of Figure 10 (Inactive / Pending / Active / Active&Pending,
 * with one buffered re-pend), priorities with a priority mask and running
 * priority, interrupt-status-register pending bits, and both EOImodes.
 */

#ifndef REX_GIC_GIC_HH
#define REX_GIC_GIC_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "sem/exception.hh"

namespace rex::gic {

/** The per-INTID handling state (Figure 10). */
enum class IntState : std::uint8_t {
    Inactive,
    Pending,
    Active,
    ActivePending,
};

/** Render a state name. */
const char *intStateName(IntState state);

/** The INTID returned by IAR when nothing is deliverable. */
inline constexpr std::uint32_t kSpuriousIntid = 1023;

/** Priority value meaning "idle" (no active interrupt). */
inline constexpr std::uint8_t kIdlePriority = 0xFF;

/** Number of SGI INTIDs (0..15). */
inline constexpr std::uint32_t kNumSgis = 16;

/** Default priority assigned to every INTID until configured. */
inline constexpr std::uint8_t kDefaultPriority = 0xA0;

/**
 * The per-PE redistributor (plus CPU-interface state): INTID states,
 * priorities, the priority mask, the running priority, and the pending
 * bit it exposes to the PE's interrupt status register.
 *
 * Lower numeric priority = more urgent (GIC convention).
 */
class Redistributor
{
  public:
    /** Current state of @p intid. */
    IntState state(std::uint32_t intid) const;

    /** The states of all SGIs (INTIDs 0..15), read in one pass. */
    std::array<IntState, kNumSgis> sgiStates() const;

    /** Source asserts the interrupt (edge): Inactive -> Pending,
     *  Active -> Active&Pending (one instance buffered; further asserts
     *  collapse, per the GIC's single-buffering rule). */
    void pend(std::uint32_t intid);

    /** Software explicitly clears a pending state
     *  (ICC/GICR clear-pending): Pending -> Inactive,
     *  Active&Pending -> Active. */
    void clearPending(std::uint32_t intid);

    /** Software explicitly sets pending (set-pending register). */
    void setPending(std::uint32_t intid);

    /**
     * Acknowledge (the IAR read): the highest-priority deliverable
     * pending INTID becomes Active, the running priority rises to its
     * priority, and the PE's pending bit clears.
     * @return the INTID, or kSpuriousIntid when nothing is deliverable.
     */
    std::uint32_t acknowledge();

    /** Priority drop (EOIR write): running priority returns to what it
     *  was before the matching acknowledge. */
    void priorityDrop(std::uint32_t intid);

    /** Deactivate (DIR write, or EOIR with EOImode=0):
     *  Active -> Inactive; Active&Pending -> Pending (immediate
     *  re-pend, §7.4). */
    void deactivate(std::uint32_t intid);

    /** Configure the priority of @p intid. */
    void setPriority(std::uint32_t intid, std::uint8_t priority);

    /** Configure the priority mask (PMR): only interrupts with priority
     *  strictly higher (numerically lower) than the mask deliver. */
    void setPriorityMask(std::uint8_t mask);

    /** True when some deliverable interrupt is pending: the pending bit
     *  in the PE's interrupt status register (ISR). */
    bool irqPending() const;

    /** The INTID the pending bit is for (highest priority deliverable);
     *  kSpuriousIntid when none. */
    std::uint32_t highestPendingDeliverable() const;

    std::uint8_t runningPriority() const { return _runningPriority; }
    std::uint8_t priorityMask() const { return _priorityMask; }

    /** Pre-acknowledge running priorities, oldest first. */
    const std::vector<std::uint8_t> &priorityStack() const
    {
        return _priorityStack;
    }

  private:
    bool deliverable(std::uint32_t intid) const;

    std::map<std::uint32_t, IntState> _states;
    std::map<std::uint32_t, std::uint8_t> _priorities;
    std::uint8_t _priorityMask = kIdlePriority;
    std::uint8_t _runningPriority = kIdlePriority;

    /** Stack of pre-acknowledge running priorities, popped on drop. */
    std::vector<std::uint8_t> _priorityStack;
};

/**
 * The distributor plus all redistributors: routes SGIs to target PEs.
 */
class Gic
{
  public:
    explicit Gic(std::size_t num_pes);

    std::size_t numPes() const { return _redists.size(); }

    Redistributor &redistributor(std::size_t pe);
    const Redistributor &redistributor(std::size_t pe) const;

    /**
     * Route an SGI (a decoded ICC_SGI1R_EL1 write by @p sender) to its
     * target PEs, pending it at each target's redistributor.
     */
    void sendSgi(const sem::SgiRequest &request, std::uint32_t sender);

  private:
    std::vector<Redistributor> _redists;
};

} // namespace rex::gic

#endif // REX_GIC_GIC_HH
