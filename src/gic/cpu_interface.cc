#include "gic/cpu_interface.hh"

namespace rex::gic {

CpuInterface::CpuInterface(Gic &gic, std::uint32_t pe, bool eoi_mode1)
    : CpuInterface(gic.redistributor(pe), eoi_mode1)
{
}

CpuInterface::CpuInterface(Redistributor &redist, bool eoi_mode1)
    : _redist(redist), _eoiMode1(eoi_mode1)
{
}

bool
CpuInterface::irqPending() const
{
    return _redist.irqPending();
}

std::uint32_t
CpuInterface::readIar()
{
    return _redist.acknowledge();
}

void
CpuInterface::writeEoir(std::uint64_t value)
{
    std::uint32_t intid = static_cast<std::uint32_t>(value & 0xFFFFFF);
    _redist.priorityDrop(intid);
    if (!_eoiMode1)
        _redist.deactivate(intid);
}

void
CpuInterface::writeDir(std::uint64_t value)
{
    std::uint32_t intid = static_cast<std::uint32_t>(value & 0xFFFFFF);
    _redist.deactivate(intid);
}

void
CpuInterface::writePmr(std::uint64_t value)
{
    _redist.setPriorityMask(static_cast<std::uint8_t>(value & 0xFF));
}

} // namespace rex::gic
