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
#include <cstddef>
#include <cstdint>
#include <type_traits>
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

/** Default priority assigned to every INTID until configured. */
inline constexpr std::uint8_t kDefaultPriority = 0xA0;

/** The modelled INTIDs: the sixteen SGIs, 0-15. */
inline constexpr std::uint32_t kNumSgis = 16;

/** Depth bound of the priority stack: each nested acknowledge needs a
 *  numerically lower priority than the running one, so with fixed
 *  priorities acknowledges nest at most once per INTID. */
inline constexpr std::size_t kMaxNesting = kNumSgis;

/**
 * The per-PE redistributor (plus CPU-interface state): INTID states,
 * priorities, the priority mask, the running priority, and the pending
 * bit it exposes to the PE's interrupt status register.
 *
 * Lower numeric priority = more urgent (GIC convention).
 *
 * The state is a fixed-size, trivially-copyable value with no padding,
 * so the operational machine embeds redistributors in its flat state and
 * compares them bytewise. Only the SGIs (INTID 0-15) are modelled: any
 * other INTID reads as Inactive, so deactivating one (an EOIR write-back
 * of the spurious INTID 1023, say) warns like any non-active
 * deactivation; pending or configuring one is an error.
 */
class Redistributor
{
  public:
    /** Current state of @p intid. */
    IntState state(std::uint32_t intid) const;

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

  private:
    bool deliverable(std::uint32_t intid) const;

    std::array<IntState, kNumSgis> _states{};
    std::array<std::uint8_t, kNumSgis> _priorities = defaultPriorities();
    std::uint8_t _priorityMask = kIdlePriority;
    std::uint8_t _runningPriority = kIdlePriority;

    /** Stack of pre-acknowledge running priorities, popped on drop;
     *  entries at and above the depth are zero. */
    std::uint8_t _stackDepth = 0;
    std::array<std::uint8_t, kMaxNesting> _priorityStack{};

    static constexpr std::array<std::uint8_t, kNumSgis>
    defaultPriorities()
    {
        std::array<std::uint8_t, kNumSgis> out{};
        for (std::uint8_t &p : out)
            p = kDefaultPriority;
        return out;
    }
};

static_assert(std::is_trivially_copyable_v<Redistributor> &&
                  std::has_unique_object_representations_v<Redistributor>,
              "a redistributor's bytes are its state");

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

    /** Route an SGI over @p num_pes redistributors held elsewhere (the
     *  operational machine keeps them in its flat state). */
    static void sendSgi(const sem::SgiRequest &request,
                        std::uint32_t sender, Redistributor *redists,
                        std::size_t num_pes);

  private:
    std::vector<Redistributor> _redists;
};

} // namespace rex::gic

#endif // REX_GIC_GIC_HH
