#include "reference_explorer.hh"

#include <algorithm>
#include <unordered_set>

#include "base/logging.hh"
#include "sem/exception.hh"

namespace rex::op::reference {

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

} // namespace

gic::CpuInterface
Machine::cpuInterface(int tid) const
{
    // Safe: the interface only mutates the GIC, never itself; the const
    // cast localises the machine's logically-mutable GIC access.
    auto *self = const_cast<Machine *>(this);
    return gic::CpuInterface(self->_gic, static_cast<std::uint32_t>(tid),
                             _test.threads[static_cast<std::size_t>(
                                 tid)].eoiMode1);
}

Machine::Machine(const LitmusTest &test, const CoreProfile &profile)
    : _test(test), _profile(profile), _gic(test.threads.size())
{
    reset();
}

void
Machine::reset()
{
    _threads.assign(_test.threads.size(), ThreadState{});
    _memory = _test.initValues;
    _memVersion.assign(_test.locations.size(), 0);
    _gic = gic::Gic(_test.threads.size());
    for (std::size_t t = 0; t < _test.threads.size(); ++t) {
        ThreadState &thread = _threads[t];
        thread.regs = _test.threads[t].initRegs;
        thread.regSource.fill(-1);
        thread.masked = _test.threads[t].initialMasked;
    }
}

bool
Machine::regReady(const ThreadState &thread, isa::RegId reg) const
{
    return thread.regSource[reg] < 0;
}

std::size_t
Machine::inFlightCount(const ThreadState &thread) const
{
    std::size_t n = 0;
    for (const InFlightOp &op : thread.ops) {
        if (!op.done)
            ++n;
    }
    return n;
}

bool
Machine::atInterruptPoint(int tid) const
{
    const ThreadState &thread = _threads[tid];
    return !thread.inHandler;
}

bool
Machine::interruptDeliverable(int tid) const
{
    const ThreadState &thread = _threads[tid];
    const LitmusThread &spec = _test.threads[tid];
    if (thread.inHandler || thread.interruptsTaken > 0 ||
            thread.forgoInterrupt) {
        return false;
    }
    if (spec.interruptAt) {
        // Mandatory externally-pended interrupt, exactly at the label.
        return !thread.finished &&
            thread.pc == spec.program.labelIndex(*spec.interruptAt);
    }
    if (thread.masked)
        return false;
    if (spec.handler.code.empty())
        return false;
    return cpuInterface(tid).irqPending();
}

bool
Machine::canIssue(int tid) const
{
    const ThreadState &thread = _threads[tid];
    const LitmusThread &spec = _test.threads[tid];
    if (thread.finished)
        return false;
    if (inFlightCount(thread) >= _profile.windowSize)
        return false;

    // A mandatory pended interrupt blocks issue at its program point.
    if (spec.interruptAt && !thread.inHandler &&
            thread.interruptsTaken == 0 &&
            thread.pc == spec.program.labelIndex(*spec.interruptAt)) {
        return false;
    }

    // An incomplete DSB blocks all later issue.
    for (const InFlightOp &op : thread.ops) {
        if (!op.done && op.kind == InFlightOp::Kind::Barrier &&
                isDsb(op.barrier)) {
            return false;
        }
    }

    const isa::Program &prog = thread.inHandler ? spec.handler
                                                : spec.program;
    std::size_t idx = thread.inHandler ? thread.handlerPc : thread.pc;
    if (idx >= prog.code.size())
        return true;  // issuing "end" finishes the thread
    const Instruction &inst = prog.code[idx];

    auto ready = [&](isa::RegId reg) { return regReady(thread, reg); };

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
      case Opcode::Ldxr: {
        bool addr_ready = ready(inst.rn) &&
            (inst.mode != isa::AddrMode::BaseReg || ready(inst.rm));
        if (!addr_ready)
            return false;
        // A faulting access drains the window first (FEAT_ETS2).
        std::uint64_t address = thread.regs[inst.rn];
        if (inst.mode == isa::AddrMode::BaseReg)
            address += thread.regs[inst.rm];
        else if (inst.mode == isa::AddrMode::BaseImm ||
                 inst.mode == isa::AddrMode::PreIndex)
            address += static_cast<std::uint64_t>(inst.imm);
        if (!addressToLocation(address, _test.locations.size()))
            return inFlightCount(thread) == 0;
        return true;
      }
      case Opcode::Str:
      case Opcode::Stlr:
      case Opcode::Stxr: {
        bool addr_ready = ready(inst.rn) &&
            (inst.mode != isa::AddrMode::BaseReg || ready(inst.rm));
        if (!addr_ready || !ready(inst.rd))
            return false;
        std::uint64_t address = thread.regs[inst.rn];
        if (inst.mode == isa::AddrMode::BaseReg)
            address += thread.regs[inst.rm];
        else if (inst.mode == isa::AddrMode::BaseImm ||
                 inst.mode == isa::AddrMode::PreIndex)
            address += static_cast<std::uint64_t>(inst.imm);
        if (!addressToLocation(address, _test.locations.size()))
            return inFlightCount(thread) == 0;
        return true;
      }
    }
    return false;
}

int
Machine::forwardingSource(const ThreadState &thread, int op_index,
                          LocationId loc) const
{
    for (int i = op_index - 1; i >= 0; --i) {
        const InFlightOp &op = thread.ops[static_cast<std::size_t>(i)];
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
    const ThreadState &thread = _threads[tid];
    const InFlightOp &load = thread.ops[static_cast<std::size_t>(op_index)];
    if (load.kind != InFlightOp::Kind::Load || load.done)
        return false;

    for (int i = 0; i < op_index; ++i) {
        const InFlightOp &op = thread.ops[static_cast<std::size_t>(i)];
        if (op.done)
            continue;
        switch (op.kind) {
          case InFlightOp::Kind::Load:
            // Unsatisfied older load: blocked unless the profile
            // reorders loads; unsatisfied older acquire always blocks.
            if (op.acquire || op.acquirePc)
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
            if (op.release && load.acquire)
                return false;
            break;
        }
    }

    // Coherence: a program-order-later same-location load must not have
    // satisfied already (it could have read an older write).
    for (std::size_t i = static_cast<std::size_t>(op_index) + 1;
         i < thread.ops.size(); ++i) {
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
        if (thread.ops[static_cast<std::size_t>(src)].exclusive)
            return false;
        if (!_profile.forwarding)
            return false;
    }
    return true;
}

bool
Machine::canCommit(int tid, int op_index) const
{
    const ThreadState &thread = _threads[tid];
    const InFlightOp &store =
        thread.ops[static_cast<std::size_t>(op_index)];
    if (store.kind != InFlightOp::Kind::Store || store.done)
        return false;

    for (int i = 0; i < op_index; ++i) {
        const InFlightOp &op = thread.ops[static_cast<std::size_t>(i)];
        if (op.done)
            continue;
        switch (op.kind) {
          case InFlightOp::Kind::Load:
            if (op.acquire || op.acquirePc)
                return false;
            // An unsatisfied older same-location load must read first.
            if (op.loc == store.loc)
                return false;
            if (store.release)
                return false;
            if (!_profile.loadStoreReorder)
                return false;
            break;
          case InFlightOp::Kind::Store:
            if (op.loc == store.loc)
                return false;  // same-location stores commit in order
            if (store.release)
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

std::vector<Machine::Transition>
Machine::enabled() const
{
    std::vector<Transition> out;
    for (int t = 0; t < static_cast<int>(_threads.size()); ++t) {
        const ThreadState &thread = _threads[static_cast<std::size_t>(t)];
        if (canIssue(t))
            out.push_back({Transition::Kind::Issue, t, -1});
        for (int i = 0; i < static_cast<int>(thread.ops.size()); ++i) {
            if (canSatisfy(t, i))
                out.push_back({Transition::Kind::Satisfy, t, i});
            if (canCommit(t, i))
                out.push_back({Transition::Kind::Commit, t, i});
        }
        if (atInterruptPoint(t) && interruptDeliverable(t)) {
            out.push_back({Transition::Kind::TakeInterrupt, t, -1});
            // Only SGIs may be forgone (the scheduler models delivery
            // that arrives after the program completes); an explicit
            // "interrupt at" is mandatory.
            if (!_test.threads[static_cast<std::size_t>(t)].interruptAt &&
                    thread.finished) {
                out.push_back({Transition::Kind::ForgoInterrupt, t, -1});
            }
        }
    }
    return out;
}

void
Machine::enterHandler(ThreadState &thread, std::uint64_t return_pc)
{
    thread.sysregs[sysregIndex(Sysreg::ELR_EL1)] = return_pc;
    thread.sysregs[sysregIndex(Sysreg::SPSR_EL1)] =
        thread.masked ? 1 : 0;
    thread.savedMasked = thread.masked;
    thread.masked = true;
    thread.inHandler = true;
    thread.handlerPc = 0;
    thread.finished = false;
}

void
Machine::takeFault(int tid, std::uint64_t address)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    if (_test.threads[static_cast<std::size_t>(tid)].handler.code.empty())
        fatal("operational: fault with no handler in " + _test.name);
    thread.sysregs[sysregIndex(Sysreg::ESR_EL1)] = sem::syndromeFor(
        ExceptionClass::DataAbortTranslation, 0);
    thread.sysregs[sysregIndex(Sysreg::FAR_EL1)] = address;
    enterHandler(thread, sem::preferredReturn(
        ExceptionClass::DataAbortTranslation, thread.pc));
}

void
Machine::takeInterrupt(int tid)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    if (_test.threads[static_cast<std::size_t>(tid)].handler.code.empty())
        fatal("operational: interrupt with no handler in " + _test.name);
    ++thread.interruptsTaken;
    enterHandler(thread, thread.pc);
}

void
Machine::issue(int tid)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    const LitmusThread &spec = _test.threads[static_cast<std::size_t>(tid)];
    const isa::Program &prog = thread.inHandler ? spec.handler
                                                : spec.program;
    std::size_t idx = thread.inHandler ? thread.handlerPc : thread.pc;

    if (idx >= prog.code.size()) {
        // Falling off the handler's end terminates the thread; falling
        // off the program's end finishes it (in-flight ops may drain).
        thread.finished = true;
        thread.inHandler = false;
        return;
    }

    const Instruction &inst = prog.code[idx];
    auto advance = [&]() {
        if (thread.inHandler)
            ++thread.handlerPc;
        else
            ++thread.pc;
    };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Label:
        advance();
        return;

      case Opcode::MovImm:
        thread.regs[inst.rd] =
            static_cast<std::uint64_t>(inst.imm) << inst.shift;
        thread.regSource[inst.rd] = -1;
        advance();
        return;

      case Opcode::MovReg:
        thread.regs[inst.rd] = thread.regs[inst.rn];
        thread.regSource[inst.rd] = -1;
        advance();
        return;

      case Opcode::Alu: {
        std::uint64_t lhs = thread.regs[inst.rn];
        std::uint64_t rhs = inst.aluImmediate
            ? static_cast<std::uint64_t>(inst.imm)
            : thread.regs[inst.rm];
        std::uint64_t result = 0;
        switch (inst.alu) {
          case isa::AluOp::Add: result = lhs + rhs; break;
          case isa::AluOp::Sub: result = lhs - rhs; break;
          case isa::AluOp::Eor: result = lhs ^ rhs; break;
          case isa::AluOp::And: result = lhs & rhs; break;
          case isa::AluOp::Orr: result = lhs | rhs; break;
        }
        thread.regs[inst.rd] = result;
        thread.regSource[inst.rd] = -1;
        advance();
        return;
      }

      case Opcode::Cmp:
        thread.cmpLhs = static_cast<std::int64_t>(thread.regs[inst.rn]);
        thread.cmpRhs = inst.aluImmediate
            ? inst.imm
            : static_cast<std::int64_t>(thread.regs[inst.rm]);
        advance();
        return;

      case Opcode::BCond: {
        bool taken =
            isa::condHoldsFor(inst.cond, thread.cmpLhs, thread.cmpRhs);
        if (taken) {
            std::size_t target = prog.labelIndex(inst.label);
            if (thread.inHandler)
                thread.handlerPc = target;
            else
                thread.pc = target;
        } else {
            advance();
        }
        return;
      }

      case Opcode::Cbz:
      case Opcode::Cbnz: {
        bool zero = thread.regs[inst.rd] == 0;
        bool taken = inst.op == Opcode::Cbz ? zero : !zero;
        if (taken) {
            std::size_t target = prog.labelIndex(inst.label);
            if (thread.inHandler)
                thread.handlerPc = target;
            else
                thread.pc = target;
        } else {
            advance();
        }
        return;
      }

      case Opcode::B: {
        std::size_t target = prog.labelIndex(inst.label);
        if (thread.inHandler)
            thread.handlerPc = target;
        else
            thread.pc = target;
        return;
      }

      case Opcode::Dmb:
      case Opcode::Dsb:
      case Opcode::Isb: {
        InFlightOp op;
        op.kind = InFlightOp::Kind::Barrier;
        op.barrier = inst.barrier;
        // ISB is a no-op here: the machine never speculates.
        op.done = inst.op == Opcode::Isb;
        thread.ops.push_back(op);
        advance();
        completeBarriers();
        return;
      }

      case Opcode::Svc: {
        rexAssert(!thread.inHandler,
                  "operational: SVC inside handler unsupported");
        if (spec.handler.code.empty())
            fatal("operational: SVC with no handler in " + _test.name);
        thread.sysregs[sysregIndex(Sysreg::ESR_EL1)] =
            sem::syndromeFor(ExceptionClass::Svc, 0);
        enterHandler(thread, thread.pc + 1);
        return;
      }

      case Opcode::Eret: {
        rexAssert(thread.inHandler, "operational: ERET outside handler");
        std::uint64_t target =
            thread.sysregs[sysregIndex(Sysreg::ELR_EL1)];
        if (target > spec.program.code.size())
            fatal("operational: ERET to bad address in " + _test.name);
        thread.inHandler = false;
        thread.pc = static_cast<std::size_t>(target);
        thread.masked = thread.savedMasked;
        return;
      }

      case Opcode::Mrs: {
        std::uint64_t value;
        if (inst.sysreg == Sysreg::ICC_IAR1_EL1)
            value = cpuInterface(tid).readIar();
        else
            value = thread.sysregs[sysregIndex(inst.sysreg)];
        thread.regs[inst.rd] = value;
        thread.regSource[inst.rd] = -1;
        advance();
        return;
      }

      case Opcode::Msr: {
        std::uint64_t value = thread.regs[inst.rn];
        switch (inst.sysreg) {
          case Sysreg::ICC_SGI1R_EL1:
            _gic.sendSgi(sem::decodeSgi1r(value),
                         static_cast<std::uint32_t>(tid));
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
            thread.sysregs[sysregIndex(inst.sysreg)] = value;
            break;
        }
        advance();
        return;
      }

      case Opcode::MsrDaifSet:
      case Opcode::MsrDaifClr:
        if (inst.imm & 0x2)
            thread.masked = inst.op == Opcode::MsrDaifSet;
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
        std::uint64_t address = thread.regs[inst.rn];
        if (inst.mode == isa::AddrMode::BaseReg)
            address += thread.regs[inst.rm];
        else if (inst.mode == isa::AddrMode::BaseImm ||
                 inst.mode == isa::AddrMode::PreIndex)
            address += static_cast<std::uint64_t>(inst.imm);

        auto loc = addressToLocation(address, _test.locations.size());
        if (!loc) {
            // Faulting access: no writeback (§3.4), handler entry.
            takeFault(tid, address);
            return;
        }

        InFlightOp op;
        op.loc = *loc;
        if (inst.isLoad()) {
            op.kind = InFlightOp::Kind::Load;
            op.destReg = inst.rd;
            op.acquire = inst.op == Opcode::Ldar;
            op.acquirePc = inst.op == Opcode::Ldapr;
            op.exclusive = inst.op == Opcode::Ldxr;
            if (inst.rd != isa::kZeroReg) {
                thread.regSource[inst.rd] =
                    static_cast<int>(thread.ops.size());
            }
        } else {
            op.kind = InFlightOp::Kind::Store;
            op.storeValue = thread.regs[inst.rd];
            op.release = inst.op == Opcode::Stlr;
            op.exclusive = inst.op == Opcode::Stxr;
            if (inst.op == Opcode::Stxr) {
                op.statusReg = inst.rs;
                if (inst.rs != isa::kZeroReg) {
                    thread.regSource[inst.rs] =
                        static_cast<int>(thread.ops.size());
                }
            }
        }
        thread.ops.push_back(op);

        // Post/pre-index writeback (only reached when non-faulting).
        if (inst.mode == isa::AddrMode::PostIndex)
            thread.regs[inst.rn] += static_cast<std::uint64_t>(inst.imm);
        else if (inst.mode == isa::AddrMode::PreIndex)
            thread.regs[inst.rn] = address;
        advance();
        return;
      }
    }
    panic("operational: unhandled opcode at issue");
}

void
Machine::satisfy(int tid, int op_index)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    InFlightOp &load = thread.ops[static_cast<std::size_t>(op_index)];

    int src = forwardingSource(thread, op_index, load.loc);
    std::uint64_t value = src >= 0
        ? thread.ops[static_cast<std::size_t>(src)].storeValue
        : _memory[load.loc];

    load.loadedValue = value;
    load.done = true;
    if (load.destReg != isa::kZeroReg &&
            thread.regSource[load.destReg] == op_index) {
        thread.regs[load.destReg] = value;
        thread.regSource[load.destReg] = -1;
    }
    if (load.exclusive)
        thread.monitor = {{load.loc, _memVersion[load.loc]}};
    completeBarriers();
}

void
Machine::commit(int tid, int op_index)
{
    ThreadState &thread = _threads[static_cast<std::size_t>(tid)];
    InFlightOp &store = thread.ops[static_cast<std::size_t>(op_index)];

    bool success = true;
    if (store.exclusive) {
        success = thread.monitor && thread.monitor->first == store.loc &&
            _memVersion[store.loc] == thread.monitor->second;
        thread.monitor.reset();
        if (store.statusReg != isa::kZeroReg &&
                thread.regSource[store.statusReg] == op_index) {
            thread.regs[store.statusReg] = success ? 0 : 1;
            thread.regSource[store.statusReg] = -1;
        }
    }
    if (success) {
        _memory[store.loc] = store.storeValue;
        ++_memVersion[store.loc];
    }
    store.done = true;
    completeBarriers();
}

void
Machine::completeBarriers()
{
    // Barriers complete eagerly once their constraints hold; completion
    // has no side effect beyond enabling later operations, so eager
    // completion preserves the reachable-outcome set.
    bool changed = true;
    while (changed) {
        changed = false;
        for (ThreadState &thread : _threads) {
            for (std::size_t i = 0; i < thread.ops.size(); ++i) {
                InFlightOp &op = thread.ops[i];
                if (op.done || op.kind != InFlightOp::Kind::Barrier)
                    continue;
                bool ok = true;
                for (std::size_t j = 0; j < i && ok; ++j) {
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
                if (ok) {
                    op.done = true;
                    changed = true;
                }
            }
        }
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
        _threads[static_cast<std::size_t>(transition.thread)]
            .forgoInterrupt = true;
        return;
    }
    panic("operational: unhandled transition kind");
}

bool
Machine::done() const
{
    for (int t = 0; t < static_cast<int>(_threads.size()); ++t) {
        const ThreadState &thread = _threads[static_cast<std::size_t>(t)];
        if (!thread.finished)
            return false;
        if (inFlightCount(thread) > 0)
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
    for (const CondAtom &atom : _test.finalCond.atoms) {
        if (atom.kind != CondAtom::Kind::Register)
            continue;
        const ThreadState &thread =
            _threads[static_cast<std::size_t>(atom.tid)];
        out.values[std::to_string(atom.tid) + ":" +
                   isa::regName(atom.reg)] = thread.regs[atom.reg];
    }
    for (LocationId loc = 0; loc < _test.locations.size(); ++loc)
        out.values["*" + _test.locations[loc]] = _memory[loc];
    return out;
}

std::string
Machine::stateKey() const
{
    std::string key;
    auto u64 = [&](std::uint64_t v) {
        key.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    for (const ThreadState &thread : _threads) {
        u64(thread.pc);
        u64(thread.handlerPc);
        key += static_cast<char>(
            (thread.inHandler << 0) | (thread.finished << 1) |
            (thread.masked << 2) | (thread.savedMasked << 3) |
            (thread.forgoInterrupt << 4));
        key += static_cast<char>(thread.interruptsTaken);
        u64(static_cast<std::uint64_t>(thread.cmpLhs));
        u64(static_cast<std::uint64_t>(thread.cmpRhs));
        for (std::size_t r = 0; r < isa::kNumRegs; ++r) {
            u64(thread.regs[r]);
            key += static_cast<char>(thread.regSource[r] & 0xFF);
        }
        for (std::uint64_t sr : thread.sysregs)
            u64(sr);
        if (thread.monitor) {
            u64(thread.monitor->first);
            u64(thread.monitor->second);
        } else {
            key += 'n';
        }
        u64(thread.ops.size());
        for (const InFlightOp &op : thread.ops) {
            key += static_cast<char>(op.kind);
            key += op.done ? '1' : '0';
            u64(op.loc);
            u64(op.storeValue);
            u64(op.loadedValue);
        }
        key += '|';
    }
    for (std::uint64_t v : _memory)
        u64(v);
    for (std::uint64_t v : _memVersion)
        u64(v);
    for (std::size_t pe = 0; pe < _gic.numPes(); ++pe) {
        const gic::Redistributor &redist = _gic.redistributor(pe);
        for (std::uint32_t intid = 0; intid < 16; ++intid)
            key += static_cast<char>(redist.state(intid));
        key += static_cast<char>(redist.runningPriority());
    }
    return key;
}

namespace {

/** DFS frame: the transition sequence that led here is implicit in the
 *  machine replays (the machine is copied per frame — states are small
 *  and litmus tests shallow). */
struct Frame {
    Machine machine;
    std::vector<Machine::Transition> transitions;
    std::size_t next = 0;
};

} // namespace

ExploreResult
explore(const LitmusTest &test, const CoreProfile &profile,
        std::size_t max_states)
{
    ExploreResult result;
    std::unordered_set<std::string> visited;

    Machine initial(test, profile);
    std::vector<Frame> stack;
    stack.push_back({initial, initial.enabled(), 0});
    visited.insert(initial.stateKey());

    while (!stack.empty()) {
        Frame &frame = stack.back();
        if (frame.machine.done()) {
            Outcome outcome = frame.machine.outcome();
            result.outcomes.insert(outcome.key());
            if (outcome.satisfiesCondition(test))
                result.conditionReachable = true;
            stack.pop_back();
            continue;
        }
        if (frame.next >= frame.transitions.size()) {
            stack.pop_back();
            continue;
        }
        Machine next = frame.machine;
        next.apply(frame.transitions[frame.next++]);
        std::string key = next.stateKey();
        if (visited.count(key))
            continue;
        if (visited.size() >= max_states) {
            result.truncated = true;
            stack.clear();
            break;
        }
        visited.insert(key);
        auto transitions = next.enabled();
        stack.push_back({std::move(next), std::move(transitions), 0});
    }

    result.statesVisited = visited.size();
    return result;
}

} // namespace rex::op::reference
