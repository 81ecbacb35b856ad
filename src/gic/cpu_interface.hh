/**
 * @file
 * The GIC CPU interface as seen by one PE: the IAR/EOIR/DIR register
 * protocol, parameterised on EOImode (§7.1).
 *
 *  - EOImode=0: a write to EOIR performs priority drop *and*
 *    deactivation simultaneously.
 *  - EOImode=1 (Linux's split model): EOIR only drops priority;
 *    deactivation is a separate DIR write.
 */

#ifndef REX_GIC_CPU_INTERFACE_HH
#define REX_GIC_CPU_INTERFACE_HH

#include <cstdint>

#include "gic/gic.hh"

namespace rex::gic {

/** One PE's window onto the GIC. */
class CpuInterface
{
  public:
    /**
     * @param gic      the shared GIC
     * @param pe       this PE's index
     * @param eoi_mode1 true for EOImode=1 (split drop/deactivate)
     */
    CpuInterface(Gic &gic, std::uint32_t pe, bool eoi_mode1);

    /** A window onto a redistributor held outside a Gic (the
     *  operational machine keeps them in its flat state). */
    CpuInterface(Redistributor &redist, bool eoi_mode1);

    /** Is EOImode=1 configured? */
    bool eoiMode1() const { return _eoiMode1; }

    /** The PE's ISR pending bit: should the PE take an IRQ? */
    bool irqPending() const;

    /** Read ICC_IAR1_EL1: acknowledge the highest-priority pending
     *  interrupt. */
    std::uint32_t readIar();

    /** Write ICC_EOIR1_EL1: drop priority (and deactivate under
     *  EOImode=0). */
    void writeEoir(std::uint64_t value);

    /** Write ICC_DIR_EL1: deactivate. */
    void writeDir(std::uint64_t value);

    /** Write ICC_PMR_EL1: set the priority mask. */
    void writePmr(std::uint64_t value);

  private:
    Redistributor &_redist;
    bool _eoiMode1;
};

} // namespace rex::gic

#endif // REX_GIC_CPU_INTERFACE_HH
