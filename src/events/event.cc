#include "events/event.hh"

#include "base/strings.hh"

namespace rex {

bool
Event::isGicEvent() const
{
    switch (kind) {
      case EventKind::GenerateInterrupt:
      case EventKind::Acknowledge:
      case EventKind::DropPriority:
      case EventKind::Deactivate:
        return true;
      default:
        return false;
    }
}

std::string
barrierName(BarrierKind kind)
{
    switch (kind) {
      case BarrierKind::DmbLd: return "DMB.LD";
      case BarrierKind::DmbSt: return "DMB.ST";
      case BarrierKind::DmbSy: return "DMB.SY";
      case BarrierKind::DsbLd: return "DSB.LD";
      case BarrierKind::DsbSt: return "DSB.ST";
      case BarrierKind::DsbSy: return "DSB.SY";
      case BarrierKind::Isb:   return "ISB";
    }
    return "?";
}

std::string
exceptionClassName(ExceptionClass cls)
{
    switch (cls) {
      case ExceptionClass::Svc:                  return "svc";
      case ExceptionClass::DataAbortTranslation: return "fault";
      case ExceptionClass::PcAlignment:          return "pc-align";
      case ExceptionClass::SyncExternalAbort:    return "sea";
    }
    return "?";
}

std::string
Event::toString(const std::vector<std::string> &loc_names) const
{
    auto loc_name = [&](LocationId l) {
        if (l < loc_names.size())
            return loc_names[l];
        return std::string("loc") + std::to_string(l);
    };

    switch (kind) {
      case EventKind::ReadMem: {
        const char *tag = "R";
        if (flags.acquire)
            tag = "Racq";
        else if (flags.acquirePc)
            tag = "Rq";
        return format("%s%s %s=%llu", tag, flags.exclusive ? "x" : "",
                      loc_name(loc).c_str(),
                      static_cast<unsigned long long>(value));
      }
      case EventKind::WriteMem: {
        const char *tag = initial ? "Winit" : "W";
        if (flags.release)
            tag = "Wrel";
        return format("%s%s %s=%llu", tag, flags.exclusive ? "x" : "",
                      loc_name(loc).c_str(),
                      static_cast<unsigned long long>(value));
      }
      case EventKind::Barrier:
        return barrierName(barrier);
      case EventKind::TakeException:
        return format("TE(%s)", exceptionClassName(exceptionClass).c_str());
      case EventKind::ExceptionReturn:
        return "ERET";
      case EventKind::ReadSysreg:
        return "MRS " + isa::sysregName(sysreg);
      case EventKind::WriteSysreg:
        return "MSR " + isa::sysregName(sysreg);
      case EventKind::TakeInterrupt:
        return format("TakeInterrupt(intid=%u)", intid);
      case EventKind::GenerateInterrupt:
        return format("GenerateInterrupt(intid=%u, targets=0x%llx)", intid,
                      static_cast<unsigned long long>(targetMask));
      case EventKind::Acknowledge:
        return format("Acknowledge(intid=%u)", intid);
      case EventKind::DropPriority:
        return format("DropPriority(intid=%u)", intid);
      case EventKind::Deactivate:
        return format("Deactivate(intid=%u)", intid);
    }
    return "?";
}

} // namespace rex
