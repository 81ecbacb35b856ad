#include "operational/machine.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "base/logging.hh"
#include "base/strings.hh"
#include "sem/exception.hh"

namespace rex::op {

using isa::Instruction;
using isa::Opcode;
using isa::Sysreg;

namespace {

std::size_t
sysregIndex(Sysreg reg)
{
    return static_cast<std::size_t>(reg);
}

bool
barrierOrdersLoads(BarrierKind kind)
{
    switch (kind) {
      case BarrierKind::DmbLd:
      case BarrierKind::DmbSy:
      case BarrierKind::DsbLd:
      case BarrierKind::DsbSy:
        return true;
      default:
        return false;
    }
}

bool
barrierOrdersStores(BarrierKind kind)
{
    switch (kind) {
      case BarrierKind::DmbSt:
      case BarrierKind::DmbSy:
      case BarrierKind::DsbSt:
      case BarrierKind::DsbSy:
        return true;
      default:
        return false;
    }
}

bool
isDsb(BarrierKind kind)
{
    return kind == BarrierKind::DsbLd || kind == BarrierKind::DsbSt ||
        kind == BarrierKind::DsbSy;
}

bool
isBarrier(Opcode op)
{
    return op == Opcode::Dmb || op == Opcode::Dsb || op == Opcode::Isb;
}

/** MSRs to these act on the GIC; every other MSR writes the sysreg. */
bool
isGicWrite(Sysreg reg)
{
    return reg == Sysreg::ICC_SGI1R_EL1 || reg == Sysreg::ICC_EOIR1_EL1 ||
        reg == Sysreg::ICC_DIR_EL1 || reg == Sysreg::ICC_PMR_EL1;
}

bool
touchesGic(const Instruction &inst)
{
    return (inst.op == Opcode::Msr && isGicWrite(inst.sysreg)) ||
        (inst.op == Opcode::Mrs && inst.sysreg == Sysreg::ICC_IAR1_EL1);
}

std::size_t
roundUp8(std::size_t bytes)
{
    return (bytes + 7) & ~std::size_t{7};
}

/** Ops the thread issues on a run with no fault and no backward jump:
 *  the program's accesses and barriers, plus the handler's once per
 *  possible entry (each SVC, and one interrupt). */
std::uint32_t
initialOpCapacity(const LitmusThread &spec)
{
    std::uint32_t program_ops = 0;
    std::uint32_t entries = 1;
    for (const Instruction &inst : spec.program.code) {
        if (inst.isMemoryAccess() || isBarrier(inst.op))
            ++program_ops;
        if (inst.op == Opcode::Svc)
            ++entries;
    }
    std::uint32_t handler_ops = 0;
    for (const Instruction &inst : spec.handler.code) {
        if (inst.isMemoryAccess() || isBarrier(inst.op))
            ++handler_ops;
    }
    return program_ops + entries * handler_ops;
}

std::vector<std::uint32_t>
branchTargets(const isa::Program &prog)
{
    std::vector<std::uint32_t> targets(prog.code.size(), 0);
    for (std::size_t i = 0; i < prog.code.size(); ++i) {
        const Instruction &inst = prog.code[i];
        if (inst.op == Opcode::B || inst.op == Opcode::BCond ||
                inst.op == Opcode::Cbz || inst.op == Opcode::Cbnz) {
            targets[i] =
                static_cast<std::uint32_t>(prog.labelIndex(inst.label));
        }
    }
    return targets;
}

/** The name of a register's or a location's slot in Outcome::key(). */
std::string
registerSlotName(ThreadId tid, isa::RegId reg)
{
    return concat({std::to_string(tid), ":", isa::regName(reg)});
}

std::string
locationSlotName(const LitmusTest &test, LocationId loc)
{
    return concat({"*", test.locations[loc]});
}

} // namespace

std::string
Outcome::key() const
{
    std::string out;
    for (const auto &[name, value] : values) {
        out += name;
        out += '=';
        out += std::to_string(value);
        out += ';';
    }
    return out;
}

std::vector<OutcomeSlot>
outcomeSlots(const LitmusTest &test)
{
    std::vector<OutcomeSlot> slots;
    for (const CondAtom &atom : test.finalCond.atoms) {
        if (atom.kind != CondAtom::Kind::Register)
            continue;
        OutcomeSlot slot;
        slot.tid = atom.tid;
        slot.reg = atom.reg;
        slot.name = registerSlotName(atom.tid, atom.reg);
        slots.push_back(std::move(slot));
    }
    for (LocationId loc = 0; loc < test.locations.size(); ++loc) {
        OutcomeSlot slot;
        slot.kind = OutcomeSlot::Kind::Location;
        slot.loc = loc;
        slot.name = locationSlotName(test, loc);
        slots.push_back(std::move(slot));
    }
    std::sort(slots.begin(), slots.end(),
              [](const OutcomeSlot &a, const OutcomeSlot &b) {
                  return a.name < b.name;
              });
    slots.erase(std::unique(slots.begin(), slots.end(),
                            [](const OutcomeSlot &a, const OutcomeSlot &b) {
                                return a.name == b.name;
                            }),
                slots.end());
    return slots;
}

std::vector<std::uint64_t>
outcomeValues(const std::vector<OutcomeSlot> &slots, std::string_view key)
{
    std::vector<std::uint64_t> values;
    values.reserve(slots.size());
    std::size_t pos = 0;
    for (const OutcomeSlot &slot : slots) {
        const std::size_t end = key.find(';', pos);
        const std::string_view entry = key.substr(pos, end - pos);
        const std::size_t name_end = slot.name.size();
        rexAssert(end != std::string_view::npos &&
                      entry.size() > name_end + 1 &&
                      entry.substr(0, name_end) == slot.name &&
                      entry[name_end] == '=',
                  "outcome key does not match the test's slots");
        std::uint64_t value = 0;
        for (char c : entry.substr(name_end + 1)) {
            rexAssert(c >= '0' && c <= '9', "outcome key: bad value");
            value = value * 10 + static_cast<std::uint64_t>(c - '0');
        }
        values.push_back(value);
        pos = end + 1;
    }
    rexAssert(pos == key.size(), "outcome key has more slots than its test");
    return values;
}

bool
Outcome::satisfiesCondition(const LitmusTest &test) const
{
    for (const CondAtom &atom : test.finalCond.atoms) {
        auto it = values.find(atom.kind == CondAtom::Kind::Register
                                  ? registerSlotName(atom.tid, atom.reg)
                                  : locationSlotName(test, atom.loc));
        if (it == values.end() || it->second != atom.value)
            return false;
    }
    return true;
}

gic::CpuInterface
Machine::cpuInterface(int tid) const
{
    return gic::CpuInterface(redistributors()[tid],
                             _test.threads[static_cast<std::size_t>(
                                 tid)].eoiMode1);
}

std::string
Machine::Transition::toString() const
{
    const char *kind_name = "?";
    switch (kind) {
      case Kind::Issue:           kind_name = "issue"; break;
      case Kind::Satisfy:         kind_name = "satisfy"; break;
      case Kind::Commit:          kind_name = "commit"; break;
      case Kind::TakeInterrupt:   kind_name = "take-interrupt"; break;
      case Kind::ForgoInterrupt:  kind_name = "forgo-interrupt"; break;
    }
    return format("T%d:%s(%d)", thread, kind_name, opIndex);
}

Machine::Machine(const LitmusTest &test, const CoreProfile &profile)
    : _test(test), _profile(profile), _outcomeSlots(outcomeSlots(test))
{
    static_assert(std::is_trivially_copyable_v<InFlightOp> &&
                      std::has_unique_object_representations_v<InFlightOp> &&
                      sizeof(InFlightOp) == 16,
                  "an op's bytes are its state");
    static_assert(std::is_trivially_copyable_v<ThreadHeader> &&
                      std::has_unique_object_representations_v<ThreadHeader> &&
                      sizeof(ThreadHeader) % 8 == 0,
                  "a thread header's bytes are its state");
    if (test.locations.size() > 0xFFFF)
        fatal("operational: too many locations in " + test.name);
    std::vector<std::uint32_t> capacity;
    for (const LitmusThread &spec : test.threads)
        capacity.push_back(initialOpCapacity(spec));
    _layout = buildLayout(capacity);
    reset();
}

Machine::Layout
Machine::buildLayout(const std::vector<std::uint32_t> &op_capacity) const
{
    Layout layout;
    std::size_t offset = 0;
    bool uses_gic = false;
    for (std::size_t t = 0; t < _test.threads.size(); ++t) {
        const LitmusThread &spec = _test.threads[t];
        std::array<bool, isa::kNumRegs> reg_live{};
        std::array<bool, isa::kNumSysregs> sysreg_live{};
        for (std::size_t r = 0; r < isa::kNumRegs; ++r)
            reg_live[r] = spec.initRegs[r] != 0;
        for (const isa::Program *prog : {&spec.program, &spec.handler}) {
            for (const Instruction &inst : prog->code) {
                for (isa::RegId r : {inst.rd, inst.rn, inst.rm, inst.rs})
                    reg_live[r] = true;
                if (inst.op == Opcode::Msr && !isGicWrite(inst.sysreg))
                    sysreg_live[sysregIndex(inst.sysreg)] = true;
                uses_gic = uses_gic || touchesGic(inst);
            }
        }
        if (!spec.handler.code.empty()) {
            for (Sysreg reg : {Sysreg::ESR_EL1, Sysreg::ELR_EL1,
                               Sysreg::SPSR_EL1, Sysreg::FAR_EL1})
                sysreg_live[sysregIndex(reg)] = true;
        }
        for (const CondAtom &atom : _test.finalCond.atoms) {
            if (atom.kind == CondAtom::Kind::Register &&
                    static_cast<std::size_t>(atom.tid) == t)
                reg_live[atom.reg] = true;
        }

        ThreadLayout tl;
        for (std::size_t r = 0; r < isa::kNumRegs; ++r) {
            tl.regSlot[r] = reg_live[r]
                ? static_cast<std::int8_t>(tl.numRegs++) : -1;
        }
        for (std::size_t r = 0; r < isa::kNumSysregs; ++r) {
            tl.sysregSlot[r] = sysreg_live[r]
                ? static_cast<std::int8_t>(tl.numSysregs++) : -1;
        }
        tl.opCapacity = op_capacity[t];
        tl.header = offset;
        offset += sizeof(ThreadHeader);
        tl.regs = offset;
        offset += sizeof(std::uint64_t) * tl.numRegs;
        tl.sysregs = offset;
        offset += sizeof(std::uint64_t) * tl.numSysregs;
        tl.regSource = offset;
        offset += roundUp8(sizeof(std::int16_t) * tl.numRegs);
        tl.ops = offset;
        offset += sizeof(InFlightOp) * tl.opCapacity;
        if (spec.interruptAt)
            tl.interruptAt = spec.program.labelIndex(*spec.interruptAt);
        tl.programTargets = branchTargets(spec.program);
        tl.handlerTargets = branchTargets(spec.handler);
        layout.threads.push_back(std::move(tl));

        // Issue, one satisfy or commit per in-flight op, and the two
        // interrupt transitions.
        layout.maxEnabled += 3 +
            std::min<std::size_t>(_profile.windowSize, op_capacity[t]);
    }
    std::size_t num_locations = _test.locations.size();
    layout.memory = offset;
    offset += sizeof(std::uint64_t) * num_locations;
    layout.versions = offset;
    offset += roundUp8(sizeof(std::uint32_t) * num_locations);
    if (uses_gic) {
        layout.gic = offset;
        offset += roundUp8(sizeof(gic::Redistributor) *
                           _test.threads.size());
    }
    layout.bytes = offset;
    return layout;
}

std::vector<std::byte>
Machine::emptyState(const Layout &layout, std::size_t num_locations)
{
    std::vector<std::byte> state(layout.bytes, std::byte{0});
    std::byte *base = state.data();
    for (const ThreadLayout &tl : layout.threads) {
        new (base + tl.header) ThreadHeader{};
        std::uninitialized_value_construct_n(
            reinterpret_cast<std::uint64_t *>(base + tl.regs), tl.numRegs);
        std::uninitialized_value_construct_n(
            reinterpret_cast<std::uint64_t *>(base + tl.sysregs),
            tl.numSysregs);
        std::uninitialized_value_construct_n(
            reinterpret_cast<std::int16_t *>(base + tl.regSource),
            tl.numRegs);
        std::uninitialized_value_construct_n(
            reinterpret_cast<InFlightOp *>(base + tl.ops), tl.opCapacity);
    }
    std::uninitialized_value_construct_n(
        reinterpret_cast<std::uint64_t *>(base + layout.memory),
        num_locations);
    std::uninitialized_value_construct_n(
        reinterpret_cast<std::uint32_t *>(base + layout.versions),
        num_locations);
    if (layout.gic != kAbsent) {
        std::uninitialized_default_construct_n(
            reinterpret_cast<gic::Redistributor *>(base + layout.gic),
            layout.threads.size());
    }
    return state;
}

void
Machine::reset()
{
    _state = emptyState(_layout, _test.locations.size());
    std::uint64_t *memory = this->memory();
    for (std::size_t loc = 0; loc < _test.locations.size(); ++loc)
        memory[loc] = _test.initValues[loc];
    for (std::size_t t = 0; t < _test.threads.size(); ++t) {
        const LitmusThread &spec = _test.threads[t];
        Thread thread = this->thread(static_cast<int>(t));
        for (std::size_t r = 0; r < isa::kNumRegs; ++r) {
            std::int8_t slot = thread.layout.regSlot[r];
            if (slot >= 0) {
                thread.regs[slot] = spec.initRegs[r];
                thread.regSource[slot] = -1;
            }
        }
        thread.h.masked = spec.initialMasked;
    }
}

void
Machine::setState(const std::byte *bytes)
{
    std::memcpy(_state.data(), bytes, _state.size());
}

std::string_view
Machine::stateKey() const
{
    return {reinterpret_cast<const char *>(_state.data()), _state.size()};
}

Machine::Thread
Machine::thread(int tid) const
{
    const ThreadLayout &layout =
        _layout.threads[static_cast<std::size_t>(tid)];
    std::byte *base = const_cast<std::byte *>(_state.data());
    return {*std::launder(reinterpret_cast<ThreadHeader *>(
                base + layout.header)),
            std::launder(reinterpret_cast<std::uint64_t *>(
                base + layout.regs)),
            std::launder(reinterpret_cast<std::uint64_t *>(
                base + layout.sysregs)),
            std::launder(reinterpret_cast<std::int16_t *>(
                base + layout.regSource)),
            std::launder(reinterpret_cast<InFlightOp *>(base + layout.ops)),
            layout};
}

std::uint64_t *
Machine::memory() const
{
    return std::launder(reinterpret_cast<std::uint64_t *>(
        const_cast<std::byte *>(_state.data()) + _layout.memory));
}

std::uint32_t *
Machine::versions() const
{
    return std::launder(reinterpret_cast<std::uint32_t *>(
        const_cast<std::byte *>(_state.data()) + _layout.versions));
}

gic::Redistributor *
Machine::redistributors() const
{
    return std::launder(reinterpret_cast<gic::Redistributor *>(
        const_cast<std::byte *>(_state.data()) + _layout.gic));
}

std::uint64_t &
Machine::Thread::sysreg(isa::Sysreg s) const
{
    return sysregs[layout.sysregSlot[sysregIndex(s)]];
}

std::uint64_t
Machine::Thread::address(const Instruction &inst) const
{
    std::uint64_t address = reg(inst.rn);
    if (inst.mode == isa::AddrMode::BaseReg)
        address += reg(inst.rm);
    else if (inst.mode == isa::AddrMode::BaseImm ||
             inst.mode == isa::AddrMode::PreIndex)
        address += static_cast<std::uint64_t>(inst.imm);
    return address;
}

std::size_t
Machine::Thread::inFlightCount() const
{
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < h.numOps; ++i) {
        if (!ops[i].done)
            ++n;
    }
    return n;
}

void
Machine::grow(int tid)
{
    std::vector<std::uint32_t> capacity;
    for (const ThreadLayout &tl : _layout.threads)
        capacity.push_back(tl.opCapacity);
    std::uint32_t &cap = capacity[static_cast<std::size_t>(tid)];
    cap = std::max<std::uint32_t>(4, 2 * cap);
    if (cap > 0x7FFF)  // op indices are kept as int16 register sources
        fatal("operational: a thread issued too many accesses in " +
              _test.name);
    Layout next = buildLayout(capacity);

    // Each thread block keeps its shape up to its ops, and the
    // globals keep theirs: copy the used bytes across.
    std::vector<std::byte> state = emptyState(next, _test.locations.size());
    for (std::size_t t = 0; t < next.threads.size(); ++t) {
        const ThreadLayout &old_tl = _layout.threads[t];
        std::uint32_t num_ops = thread(static_cast<int>(t)).h.numOps;
        std::memcpy(state.data() + next.threads[t].header,
                    _state.data() + old_tl.header,
                    old_tl.ops - old_tl.header +
                        num_ops * sizeof(InFlightOp));
    }
    std::memcpy(state.data() + next.memory, _state.data() + _layout.memory,
                _state.size() - _layout.memory);
    _layout = std::move(next);
    _state = std::move(state);
}

int
Machine::pushOp(int tid, const InFlightOp &op)
{
    if (thread(tid).h.numOps == thread(tid).layout.opCapacity)
        grow(tid);
    Thread thread = this->thread(tid);
    int index = static_cast<int>(thread.h.numOps++);
    thread.ops[index] = op;
    return index;
}

bool
Machine::interruptDeliverable(int tid) const
{
    Thread thread = this->thread(tid);
    const LitmusThread &spec = _test.threads[static_cast<std::size_t>(tid)];
    if (thread.h.inHandler || thread.h.interruptsTaken > 0 ||
            thread.h.forgoInterrupt) {
        return false;
    }
    if (spec.interruptAt) {
        // Mandatory externally-pended interrupt, exactly at the label.
        return !thread.h.finished && thread.h.pc == thread.layout.interruptAt;
    }
    if (thread.h.masked)
        return false;
    if (spec.handler.code.empty() || _layout.gic == kAbsent)
        return false;
    return cpuInterface(tid).irqPending();
}

bool
Machine::issueIsLocal(int tid) const
{
    Thread thread = this->thread(tid);
    const ThreadHeader &h = thread.h;
    const LitmusThread &spec = _test.threads[static_cast<std::size_t>(tid)];
    const isa::Program &prog = h.inHandler ? spec.handler : spec.program;
    std::size_t idx = h.inHandler ? h.handlerPc : h.pc;
    if (idx < prog.code.size() && touchesGic(prog.code[idx]))
        return false;
    // An SGI from another thread could make this thread's interrupt
    // deliverable, and taking it competes with the Issue for the pc.
    bool interruptible = _layout.gic != kAbsent && !spec.interruptAt &&
        !spec.handler.code.empty() && !h.inHandler &&
        h.interruptsTaken == 0 && !h.forgoInterrupt && !h.masked;
    return !interruptible;
}

bool
Machine::canIssue(int tid) const
{
    Thread thread = this->thread(tid);
    const LitmusThread &spec = _test.threads[static_cast<std::size_t>(tid)];
    if (thread.h.finished)
        return false;

    // A full window, or an incomplete DSB, blocks all later issue.
    std::size_t in_flight = 0;
    for (std::uint32_t i = 0; i < thread.h.numOps; ++i) {
        const InFlightOp &op = thread.ops[i];
        if (op.done)
            continue;
        if (op.kind == InFlightOp::Kind::Barrier && isDsb(op.barrier))
            return false;
        ++in_flight;
    }
    if (in_flight >= _profile.windowSize)
        return false;

    // A mandatory pended interrupt blocks issue at its program point.
    if (!thread.h.inHandler && thread.h.interruptsTaken == 0 &&
            thread.h.pc == thread.layout.interruptAt) {
        return false;
    }

    const isa::Program &prog = thread.h.inHandler ? spec.handler
                                                  : spec.program;
    std::size_t idx = thread.h.inHandler ? thread.h.handlerPc : thread.h.pc;
    if (idx >= prog.code.size())
        return true;  // issuing "end" finishes the thread
    const Instruction &inst = prog.code[idx];

    auto ready = [&](isa::RegId reg) { return thread.ready(reg); };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Label:
      case Opcode::MovImm:
      case Opcode::Svc:
      case Opcode::Eret:
      case Opcode::Dmb:
      case Opcode::Dsb:
      case Opcode::Isb:
      case Opcode::MsrDaifSet:
      case Opcode::MsrDaifClr:
      case Opcode::Mrs:
        return true;
      case Opcode::MovReg:
        return ready(inst.rn);
      case Opcode::Alu:
      case Opcode::Cmp:
        return ready(inst.rn) && (inst.aluImmediate || ready(inst.rm));
      case Opcode::Cbz:
      case Opcode::Cbnz:
        return ready(inst.rd);
      case Opcode::B:
      case Opcode::BCond:
        return true;
      case Opcode::Msr:
        return ready(inst.rn);
      case Opcode::Ldp:
      case Opcode::Stp:
        panic("pair access not expanded by the assembler");
      case Opcode::Ldr:
      case Opcode::Ldar:
      case Opcode::Ldapr:
      case Opcode::Ldxr:
      case Opcode::Str:
      case Opcode::Stlr:
      case Opcode::Stxr: {
        bool addr_ready = ready(inst.rn) &&
            (inst.mode != isa::AddrMode::BaseReg || ready(inst.rm));
        if (!addr_ready || (inst.isStore() && !ready(inst.rd)))
            return false;
        // A faulting access drains the window first (FEAT_ETS2).
        if (!addressToLocation(thread.address(inst),
                               _test.locations.size()))
            return in_flight == 0;
        return true;
      }
    }
    return false;
}

int
Machine::forwardingSource(const Thread &thread, int op_index,
                          std::uint16_t loc)
{
    for (int i = op_index - 1; i >= 0; --i) {
        const InFlightOp &op = thread.ops[i];
        if (op.kind == InFlightOp::Kind::Store && !op.done &&
                op.loc == loc) {
            return i;
        }
    }
    return -1;
}

bool
Machine::canSatisfy(int tid, int op_index) const
{
    Thread thread = this->thread(tid);
    const InFlightOp &load = thread.ops[op_index];
    if (load.kind != InFlightOp::Kind::Load || load.done)
        return false;

    for (int i = 0; i < op_index; ++i) {
        const InFlightOp &op = thread.ops[i];
        if (op.done)
            continue;
        switch (op.kind) {
          case InFlightOp::Kind::Load:
            // Unsatisfied older load: blocked unless the profile
            // reorders loads; unsatisfied older acquire always blocks.
            if (op.order != InFlightOp::Order::Plain)
                return false;
            if (!_profile.loadLoadReorder)
                return false;
            break;
          case InFlightOp::Kind::Barrier:
            if (barrierOrdersLoads(op.barrier))
                return false;
            break;
          case InFlightOp::Kind::Store:
            // Uncommitted older release blocks an acquire ([L];po;[A]).
            if (op.order == InFlightOp::Order::Release &&
                    load.order == InFlightOp::Order::Acquire)
                return false;
            break;
        }
    }

    // Coherence: a program-order-later same-location load must not have
    // satisfied already (it could have read an older write).
    for (std::uint32_t i = static_cast<std::uint32_t>(op_index) + 1;
         i < thread.h.numOps; ++i) {
        const InFlightOp &op = thread.ops[i];
        if (op.kind == InFlightOp::Kind::Load && op.done &&
                op.loc == load.loc) {
            return false;
        }
    }

    // Forwarding from an uncommitted older same-location store.
    int src = forwardingSource(thread, op_index, load.loc);
    if (src >= 0) {
        // A pending store-exclusive's value is speculative: whether it
        // writes at all is decided only at commit (the monitor check),
        // and a failed STXR writes nothing, so no load may ever read
        // its value. The load waits for the commit and then reads
        // memory, which is correct on both the success and the failure
        // path.
        if (thread.ops[src].exclusive)
            return false;
        if (!_profile.forwarding)
            return false;
    }
    return true;
}

bool
Machine::canCommit(int tid, int op_index) const
{
    Thread thread = this->thread(tid);
    const InFlightOp &store = thread.ops[op_index];
    if (store.kind != InFlightOp::Kind::Store || store.done)
        return false;
    bool release = store.order == InFlightOp::Order::Release;

    for (int i = 0; i < op_index; ++i) {
        const InFlightOp &op = thread.ops[i];
        if (op.done)
            continue;
        switch (op.kind) {
          case InFlightOp::Kind::Load:
            if (op.order != InFlightOp::Order::Plain)
                return false;
            // An unsatisfied older same-location load must read first.
            if (op.loc == store.loc)
                return false;
            if (release)
                return false;
            if (!_profile.loadStoreReorder)
                return false;
            break;
          case InFlightOp::Kind::Store:
            if (op.loc == store.loc)
                return false;  // same-location stores commit in order
            if (release)
                return false;
            if (!_profile.storeStoreReorder)
                return false;
            break;
          case InFlightOp::Kind::Barrier:
            // DMB ST orders later stores; DMB LD orders *all* later
            // accesses ([dmbld]; po; [R|W]); SY/DSB order both. Hence
            // any incomplete earlier barrier blocks a commit.
            return false;
        }
    }
    return true;
}

std::size_t
Machine::enabled(Transition *out) const
{
    std::size_t n = 0;
    for (int t = 0; t < static_cast<int>(_test.threads.size()); ++t) {
        Thread thread = this->thread(t);
        if (canIssue(t))
            out[n++] = {Transition::Kind::Issue, t, -1};
        for (int i = 0; i < static_cast<int>(thread.h.numOps); ++i) {
            if (canSatisfy(t, i))
                out[n++] = {Transition::Kind::Satisfy, t, i};
            if (canCommit(t, i))
                out[n++] = {Transition::Kind::Commit, t, i};
        }
        if (interruptDeliverable(t)) {
            out[n++] = {Transition::Kind::TakeInterrupt, t, -1};
            // Only SGIs may be forgone (the scheduler models delivery
            // that arrives after the program completes); an explicit
            // "interrupt at" is mandatory.
            if (!_test.threads[static_cast<std::size_t>(t)].interruptAt &&
                    thread.h.finished) {
                out[n++] = {Transition::Kind::ForgoInterrupt, t, -1};
            }
        }
    }
    return n;
}

std::vector<Machine::Transition>
Machine::enabled() const
{
    std::vector<Transition> out(maxEnabled());
    out.resize(enabled(out.data()));
    return out;
}

void
Machine::enterHandler(const Thread &thread, std::uint64_t return_pc)
{
    thread.sysreg(Sysreg::ELR_EL1) = return_pc;
    thread.sysreg(Sysreg::SPSR_EL1) = thread.h.masked ? 1 : 0;
    thread.h.savedMasked = thread.h.masked;
    thread.h.masked = true;
    thread.h.inHandler = true;
    thread.h.handlerPc = 0;
    thread.h.finished = false;
}

void
Machine::takeFault(int tid, std::uint64_t address)
{
    Thread thread = this->thread(tid);
    if (_test.threads[static_cast<std::size_t>(tid)].handler.code.empty())
        fatal("operational: fault with no handler in " + _test.name);
    thread.sysreg(Sysreg::ESR_EL1) = sem::syndromeFor(
        ExceptionClass::DataAbortTranslation, 0);
    thread.sysreg(Sysreg::FAR_EL1) = address;
    enterHandler(thread, sem::preferredReturn(
        ExceptionClass::DataAbortTranslation, thread.h.pc));
}

void
Machine::takeInterrupt(int tid)
{
    Thread thread = this->thread(tid);
    if (_test.threads[static_cast<std::size_t>(tid)].handler.code.empty())
        fatal("operational: interrupt with no handler in " + _test.name);
    ++thread.h.interruptsTaken;
    enterHandler(thread, thread.h.pc);
}

void
Machine::issue(int tid)
{
    Thread thread = this->thread(tid);
    ThreadHeader &h = thread.h;
    const LitmusThread &spec = _test.threads[static_cast<std::size_t>(tid)];
    const isa::Program &prog = h.inHandler ? spec.handler : spec.program;
    std::size_t idx = h.inHandler ? h.handlerPc : h.pc;

    if (idx >= prog.code.size()) {
        // Falling off the handler's end terminates the thread; falling
        // off the program's end finishes it (in-flight ops may drain).
        h.finished = true;
        h.inHandler = false;
        return;
    }

    const Instruction &inst = prog.code[idx];
    auto advance = [&]() {
        if (h.inHandler)
            ++h.handlerPc;
        else
            ++h.pc;
    };
    auto jump = [&]() {
        const auto &targets = h.inHandler ? thread.layout.handlerTargets
                                          : thread.layout.programTargets;
        if (h.inHandler)
            h.handlerPc = targets[idx];
        else
            h.pc = targets[idx];
    };
    auto write = [&](isa::RegId reg, std::uint64_t value) {
        thread.reg(reg) = value;
        thread.source(reg) = -1;
    };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Label:
        advance();
        return;

      case Opcode::MovImm:
        write(inst.rd, static_cast<std::uint64_t>(inst.imm) << inst.shift);
        advance();
        return;

      case Opcode::MovReg:
        write(inst.rd, thread.reg(inst.rn));
        advance();
        return;

      case Opcode::Alu: {
        std::uint64_t lhs = thread.reg(inst.rn);
        std::uint64_t rhs = inst.aluImmediate
            ? static_cast<std::uint64_t>(inst.imm)
            : thread.reg(inst.rm);
        std::uint64_t result = 0;
        switch (inst.alu) {
          case isa::AluOp::Add: result = lhs + rhs; break;
          case isa::AluOp::Sub: result = lhs - rhs; break;
          case isa::AluOp::Eor: result = lhs ^ rhs; break;
          case isa::AluOp::And: result = lhs & rhs; break;
          case isa::AluOp::Orr: result = lhs | rhs; break;
        }
        write(inst.rd, result);
        advance();
        return;
      }

      case Opcode::Cmp:
        h.cmpLhs = static_cast<std::int64_t>(thread.reg(inst.rn));
        h.cmpRhs = inst.aluImmediate
            ? inst.imm
            : static_cast<std::int64_t>(thread.reg(inst.rm));
        advance();
        return;

      case Opcode::BCond:
        if (isa::condHoldsFor(inst.cond, h.cmpLhs, h.cmpRhs))
            jump();
        else
            advance();
        return;

      case Opcode::Cbz:
      case Opcode::Cbnz: {
        bool zero = thread.reg(inst.rd) == 0;
        if (inst.op == Opcode::Cbz ? zero : !zero)
            jump();
        else
            advance();
        return;
      }

      case Opcode::B:
        jump();
        return;

      case Opcode::Dmb:
      case Opcode::Dsb:
      case Opcode::Isb: {
        InFlightOp op{};
        op.kind = InFlightOp::Kind::Barrier;
        op.barrier = inst.barrier;
        // ISB is a no-op here: the machine never speculates.
        op.done = inst.op == Opcode::Isb;
        advance();
        pushOp(tid, op);
        completeBarriers(tid);
        return;
      }

      case Opcode::Svc: {
        rexAssert(!h.inHandler,
                  "operational: SVC inside handler unsupported");
        if (spec.handler.code.empty())
            fatal("operational: SVC with no handler in " + _test.name);
        thread.sysreg(Sysreg::ESR_EL1) =
            sem::syndromeFor(ExceptionClass::Svc, 0);
        enterHandler(thread, h.pc + 1);
        return;
      }

      case Opcode::Eret: {
        rexAssert(h.inHandler, "operational: ERET outside handler");
        std::uint64_t target = thread.sysreg(Sysreg::ELR_EL1);
        if (target > spec.program.code.size())
            fatal("operational: ERET to bad address in " + _test.name);
        h.inHandler = false;
        h.pc = static_cast<std::uint32_t>(target);
        h.masked = h.savedMasked;
        return;
      }

      case Opcode::Mrs: {
        std::uint64_t value = 0;
        std::int8_t slot = thread.layout.sysregSlot[sysregIndex(inst.sysreg)];
        if (inst.sysreg == Sysreg::ICC_IAR1_EL1)
            value = cpuInterface(tid).readIar();
        else if (slot >= 0)
            value = thread.sysregs[slot];  // else never written: zero
        write(inst.rd, value);
        advance();
        return;
      }

      case Opcode::Msr: {
        std::uint64_t value = thread.reg(inst.rn);
        switch (inst.sysreg) {
          case Sysreg::ICC_SGI1R_EL1:
            gic::Gic::sendSgi(sem::decodeSgi1r(value),
                              static_cast<std::uint32_t>(tid),
                              redistributors(), _test.threads.size());
            break;
          case Sysreg::ICC_EOIR1_EL1:
            cpuInterface(tid).writeEoir(value);
            break;
          case Sysreg::ICC_DIR_EL1:
            cpuInterface(tid).writeDir(value);
            break;
          case Sysreg::ICC_PMR_EL1:
            cpuInterface(tid).writePmr(value);
            break;
          default:
            thread.sysreg(inst.sysreg) = value;
            break;
        }
        advance();
        return;
      }

      case Opcode::MsrDaifSet:
      case Opcode::MsrDaifClr:
        if (inst.imm & 0x2)
            h.masked = inst.op == Opcode::MsrDaifSet;
        advance();
        return;

      case Opcode::Ldp:
      case Opcode::Stp:
        panic("pair access not expanded by the assembler");

      case Opcode::Ldr:
      case Opcode::Ldar:
      case Opcode::Ldapr:
      case Opcode::Ldxr:
      case Opcode::Str:
      case Opcode::Stlr:
      case Opcode::Stxr: {
        std::uint64_t address = thread.address(inst);
        auto loc = addressToLocation(address, _test.locations.size());
        if (!loc) {
            // Faulting access: no writeback (§3.4), handler entry.
            takeFault(tid, address);
            return;
        }

        InFlightOp op{};
        op.loc = static_cast<std::uint16_t>(*loc);
        isa::RegId source_reg = isa::kZeroReg;
        if (inst.isLoad()) {
            op.kind = InFlightOp::Kind::Load;
            op.reg = source_reg = inst.rd;
            op.order = inst.op == Opcode::Ldar ? InFlightOp::Order::Acquire
                : inst.op == Opcode::Ldapr ? InFlightOp::Order::AcquirePc
                : InFlightOp::Order::Plain;
            op.exclusive = inst.op == Opcode::Ldxr;
        } else {
            op.kind = InFlightOp::Kind::Store;
            op.value = thread.reg(inst.rd);
            op.order = inst.op == Opcode::Stlr ? InFlightOp::Order::Release
                                               : InFlightOp::Order::Plain;
            op.exclusive = inst.op == Opcode::Stxr;
            if (op.exclusive)
                op.reg = source_reg = inst.rs;
        }

        // Post/pre-index writeback (only reached when non-faulting).
        if (inst.mode == isa::AddrMode::PostIndex)
            thread.reg(inst.rn) += static_cast<std::uint64_t>(inst.imm);
        else if (inst.mode == isa::AddrMode::PreIndex)
            thread.reg(inst.rn) = address;
        advance();

        int index = pushOp(tid, op);  // may move the state
        if (source_reg != isa::kZeroReg)
            this->thread(tid).source(source_reg) =
                static_cast<std::int16_t>(index);
        return;
      }
    }
    panic("operational: unhandled opcode at issue");
}

void
Machine::satisfy(int tid, int op_index)
{
    Thread thread = this->thread(tid);
    InFlightOp &load = thread.ops[op_index];

    int src = forwardingSource(thread, op_index, load.loc);
    std::uint64_t value = src >= 0 ? thread.ops[src].value
                                   : memory()[load.loc];

    load.value = value;
    load.done = true;
    if (load.reg != isa::kZeroReg && thread.source(load.reg) == op_index) {
        thread.reg(load.reg) = value;
        thread.source(load.reg) = -1;
    }
    if (load.exclusive) {
        thread.h.hasMonitor = true;
        thread.h.monitorLoc = load.loc;
        thread.h.monitorVersion = versions()[load.loc];
    }
    completeBarriers(tid);
}

void
Machine::commit(int tid, int op_index)
{
    Thread thread = this->thread(tid);
    InFlightOp &store = thread.ops[op_index];

    bool success = true;
    if (store.exclusive) {
        success = thread.h.hasMonitor && thread.h.monitorLoc == store.loc &&
            versions()[store.loc] == thread.h.monitorVersion;
        thread.h.hasMonitor = false;
        thread.h.monitorLoc = 0;
        thread.h.monitorVersion = 0;
        if (store.reg != isa::kZeroReg &&
                thread.source(store.reg) == op_index) {
            thread.reg(store.reg) = success ? 0 : 1;
            thread.source(store.reg) = -1;
        }
    }
    if (success) {
        memory()[store.loc] = store.value;
        ++versions()[store.loc];
    }
    store.done = true;
    completeBarriers(tid);
}

void
Machine::completeBarriers(int tid)
{
    // Barriers complete eagerly once their constraints hold; completion
    // has no side effect beyond enabling later operations, so eager
    // completion preserves the reachable-outcome set. A barrier waits
    // only on its own thread's older ops, so only the acting thread's
    // barriers can have become completable, and one oldest-first pass
    // completes them all: completing a barrier unblocks younger ones
    // only.
    Thread thread = this->thread(tid);
    for (std::uint32_t i = 0; i < thread.h.numOps; ++i) {
        InFlightOp &op = thread.ops[i];
        if (op.done || op.kind != InFlightOp::Kind::Barrier)
            continue;
        bool ok = true;
        for (std::uint32_t j = 0; j < i && ok; ++j) {
            const InFlightOp &prev = thread.ops[j];
            if (prev.done)
                continue;
            if (prev.kind == InFlightOp::Kind::Load &&
                    barrierOrdersLoads(op.barrier)) {
                ok = false;
            }
            if (prev.kind == InFlightOp::Kind::Store &&
                    barrierOrdersStores(op.barrier)) {
                ok = false;
            }
            if (prev.kind == InFlightOp::Kind::Barrier)
                ok = false;
        }
        if (ok)
            op.done = true;
    }
}

void
Machine::apply(const Transition &transition)
{
    switch (transition.kind) {
      case Transition::Kind::Issue:
        issue(transition.thread);
        return;
      case Transition::Kind::Satisfy:
        satisfy(transition.thread, transition.opIndex);
        return;
      case Transition::Kind::Commit:
        commit(transition.thread, transition.opIndex);
        return;
      case Transition::Kind::TakeInterrupt:
        takeInterrupt(transition.thread);
        return;
      case Transition::Kind::ForgoInterrupt:
        thread(transition.thread).h.forgoInterrupt = true;
        return;
    }
    panic("operational: unhandled transition kind");
}

bool
Machine::done() const
{
    for (int t = 0; t < static_cast<int>(_test.threads.size()); ++t) {
        Thread thread = this->thread(t);
        if (!thread.h.finished)
            return false;
        if (thread.inFlightCount() > 0)
            return false;
        if (interruptDeliverable(t))
            return false;  // must be taken or forgone first
    }
    return true;
}

Outcome
Machine::outcome() const
{
    Outcome out;
    const std::uint64_t *memory = this->memory();
    for (const OutcomeSlot &slot : _outcomeSlots) {
        out.values.emplace_hint(
            out.values.end(), slot.name,
            slot.kind == OutcomeSlot::Kind::Register
                ? thread(slot.tid).reg(slot.reg)
                : memory[slot.loc]);
    }
    return out;
}

} // namespace rex::op
