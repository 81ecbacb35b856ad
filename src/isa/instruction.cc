#include "isa/instruction.hh"

#include "base/strings.hh"

namespace rex::isa {

bool
Instruction::isLoad() const
{
    switch (op) {
      case Opcode::Ldr:
      case Opcode::Ldar:
      case Opcode::Ldapr:
      case Opcode::Ldxr:
      case Opcode::Ldp:
        return true;
      default:
        return false;
    }
}

bool
Instruction::isStore() const
{
    switch (op) {
      case Opcode::Str:
      case Opcode::Stlr:
      case Opcode::Stxr:
      case Opcode::Stp:
        return true;
      default:
        return false;
    }
}

bool
Instruction::isBranch() const
{
    switch (op) {
      case Opcode::Cbz:
      case Opcode::Cbnz:
      case Opcode::B:
      case Opcode::BCond:
        return true;
      default:
        return false;
    }
}

std::string
condName(CondCode cond)
{
    switch (cond) {
      case CondCode::Eq: return "EQ";
      case CondCode::Ne: return "NE";
      case CondCode::Ge: return "GE";
      case CondCode::Gt: return "GT";
      case CondCode::Le: return "LE";
      case CondCode::Lt: return "LT";
    }
    return "?";
}

bool
condHoldsFor(CondCode cond, std::int64_t lhs, std::int64_t rhs)
{
    switch (cond) {
      case CondCode::Eq: return lhs == rhs;
      case CondCode::Ne: return lhs != rhs;
      case CondCode::Ge: return lhs >= rhs;
      case CondCode::Gt: return lhs > rhs;
      case CondCode::Le: return lhs <= rhs;
      case CondCode::Lt: return lhs < rhs;
    }
    return false;
}

namespace {

std::string
addrString(const Instruction &inst)
{
    switch (inst.mode) {
      case AddrMode::BaseOnly:
        return concat({"[", regName(inst.rn), "]"});
      case AddrMode::BaseReg:
        return concat({"[", regName(inst.rn), ",", regName(inst.rm), "]"});
      case AddrMode::BaseImm:
        return concat(
            {"[", regName(inst.rn), ",#", std::to_string(inst.imm), "]"});
      case AddrMode::PostIndex:
        return concat(
            {"[", regName(inst.rn), "],#", std::to_string(inst.imm)});
      case AddrMode::PreIndex:
        return concat(
            {"[", regName(inst.rn), ",#", std::to_string(inst.imm), "]!"});
    }
    return "[?]";
}

std::string
aluName(AluOp op)
{
    switch (op) {
      case AluOp::Add: return "ADD";
      case AluOp::Sub: return "SUB";
      case AluOp::Eor: return "EOR";
      case AluOp::And: return "AND";
      case AluOp::Orr: return "ORR";
    }
    return "?";
}

std::string
barrierDomain(BarrierKind kind)
{
    switch (kind) {
      case BarrierKind::DmbLd:
      case BarrierKind::DsbLd:
        return "LD";
      case BarrierKind::DmbSt:
      case BarrierKind::DsbSt:
        return "ST";
      default:
        return "SY";
    }
}

} // namespace

std::string
Instruction::toString() const
{
    switch (op) {
      case Opcode::Nop:
        return "NOP";
      case Opcode::MovImm:
        if (shift != 0) {
            return format("MOV %s,#%lld,LSL #%d", regName(rd).c_str(),
                          static_cast<long long>(imm), shift);
        }
        return format("MOV %s,#%lld", regName(rd).c_str(),
                      static_cast<long long>(imm));
      case Opcode::MovReg:
        return "MOV " + regName(rd) + "," + regName(rn);
      case Opcode::Ldr:
        return "LDR " + regName(rd) + "," + addrString(*this);
      case Opcode::Str:
        return "STR " + regName(rd) + "," + addrString(*this);
      case Opcode::Ldar:
        return "LDAR " + regName(rd) + "," + addrString(*this);
      case Opcode::Ldapr:
        return "LDAPR " + regName(rd) + "," + addrString(*this);
      case Opcode::Stlr:
        return "STLR " + regName(rd) + "," + addrString(*this);
      case Opcode::Ldxr:
        return "LDXR " + regName(rd) + "," + addrString(*this);
      case Opcode::Stxr:
        return "STXR " + regName(rs) + "," + regName(rd) + "," +
            addrString(*this);
      case Opcode::Ldp:
        return "LDP " + regName(rd) + "," + regName(rs) + "," +
            addrString(*this);
      case Opcode::Stp:
        return "STP " + regName(rd) + "," + regName(rs) + "," +
            addrString(*this);
      case Opcode::Dmb:
        return "DMB " + barrierDomain(barrier);
      case Opcode::Dsb:
        return "DSB " + barrierDomain(barrier);
      case Opcode::Isb:
        return "ISB";
      case Opcode::Alu:
        if (aluImmediate) {
            return aluName(alu) + " " + regName(rd) + "," + regName(rn) +
                ",#" + std::to_string(imm);
        }
        return aluName(alu) + " " + regName(rd) + "," + regName(rn) + "," +
            regName(rm);
      case Opcode::Cmp:
        if (aluImmediate) {
            return "CMP " + regName(rn) + ",#" + std::to_string(imm);
        }
        return "CMP " + regName(rn) + "," + regName(rm);
      case Opcode::Cbz:
        return "CBZ " + regName(rd) + "," + label;
      case Opcode::Cbnz:
        return "CBNZ " + regName(rd) + "," + label;
      case Opcode::B:
        return "B " + label;
      case Opcode::BCond:
        return "B." + condName(cond) + " " + label;
      case Opcode::Svc:
        return "SVC #" + std::to_string(imm);
      case Opcode::Eret:
        return "ERET";
      case Opcode::Mrs:
        return "MRS " + regName(rd) + "," + sysregName(sysreg);
      case Opcode::Msr:
        return "MSR " + sysregName(sysreg) + "," + regName(rn);
      case Opcode::MsrDaifSet:
        return "MSR DAIFSet,#" + std::to_string(imm);
      case Opcode::MsrDaifClr:
        return "MSR DAIFClr,#" + std::to_string(imm);
      case Opcode::Label:
        return label + ":";
    }
    return "?";
}

} // namespace rex::isa
