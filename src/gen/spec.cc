/**
 * @file
 * TestSpec rendering, lowering and feature accounting.
 */

#include "gen/spec.hh"

#include "base/logging.hh"
#include "litmus/litmus.hh"

namespace rex::gen {

namespace {

const char *kLocationNames[] = {"x", "y", "z"};

std::string
locationName(int loc)
{
    rexAssert(loc >= 0 && loc < 3, "gen: location index out of range");
    return kLocationNames[loc];
}

/** The base-address register of location @p loc (X10, X11, X12). */
std::string
baseReg(int loc)
{
    return "X1" + std::to_string(loc);
}

/** The label of thread @p tid's control dependency number @p seq. */
std::string
ctrlLabel(int tid, int seq)
{
    return "LC" + std::to_string(tid) + std::to_string(seq);
}

/** The label an interrupt of thread @p tid is pended at. */
std::string
interruptLabel(std::size_t tid)
{
    return "LI" + std::to_string(tid);
}

/** Render one op into @p out. @p label_seq numbers control-dep labels
 *  uniquely within the thread. */
void
renderOp(std::string &out, const Op &op, int tid, int &label_seq)
{
    // Control-dependency guard: a conditional branch on the earlier
    // load's destination, immediately resolved.
    if (op.dep == Op::Dep::Ctrl) {
        std::string label = ctrlLabel(tid, label_seq++);
        out += "    CBNZ X" + std::to_string(op.depOn) + "," + label + "\n";
        out += label + ":\n";
    }

    // Address dependency: EOR-zero the earlier load into the base.
    std::string base = baseReg(op.loc);
    if (op.dep == Op::Dep::Addr) {
        out += "    EOR X5,X" + std::to_string(op.depOn) + ",X" +
               std::to_string(op.depOn) + "\n";
        out += "    ADD X7," + base + ",X5\n";
        base = "X7";
    }

    switch (op.kind) {
      case Op::Kind::Load: {
        const char *mnemonic =
            op.acquire ? "LDAR" : (op.acquirePc ? "LDAPR" : "LDR");
        out += std::string("    ") + mnemonic + " X" +
               std::to_string(op.dst) + ",[" + base + "]\n";
        break;
      }
      case Op::Kind::Store: {
        if (op.dep == Op::Dep::Data) {
            out += "    EOR X5,X" + std::to_string(op.depOn) + ",X" +
                   std::to_string(op.depOn) + "\n";
            out += "    ADD X6,X5,#" + std::to_string(op.value) + "\n";
        } else {
            out += "    MOV X6,#" + std::to_string(op.value) + "\n";
        }
        out += std::string("    ") + (op.release ? "STLR" : "STR") +
               " X6,[" + base + "]\n";
        break;
      }
      case Op::Kind::LoadPair:
        out += "    LDP X" + std::to_string(op.dst) + ",X" +
               std::to_string(op.dst + 1) + ",[" + base + "]\n";
        break;
      case Op::Kind::StorePair:
        out += "    MOV X6,#" + std::to_string(op.value) + "\n";
        out += "    STP X6,X6,[" + base + "]\n";
        break;
      case Op::Kind::Rmw:
        // Exclusive pair with a data dependency from the load into the
        // store, via the EOR-zero idiom: the stored value is the fixed
        // immediate, keeping the read-value domain bounded (a read+1
        // chain would grow it without fixpoint).
        out += "    LDXR X" + std::to_string(op.dst) + ",[" + base + "]\n";
        out += "    EOR X6,X" + std::to_string(op.dst) + ",X" +
               std::to_string(op.dst) + "\n";
        out += "    ADD X6,X6,#" + std::to_string(op.value) + "\n";
        out += "    STXR W8,X6,[" + base + "]\n";
        break;
      case Op::Kind::Fence:
        switch (op.fence) {
          case Op::Fence::DmbSy: out += "    DMB SY\n"; break;
          case Op::Fence::DmbLd: out += "    DMB LD\n"; break;
          case Op::Fence::DmbSt: out += "    DMB ST\n"; break;
          case Op::Fence::DsbSy: out += "    DSB SY\n"; break;
          case Op::Fence::Isb: out += "    ISB\n"; break;
        }
        break;
      case Op::Kind::MovImm:
        out += "    MOV X9,#" + std::to_string(op.value) + "\n";
        break;
    }
}

void
renderOps(std::string &out, const std::vector<Op> &ops, int tid,
          int &label_seq)
{
    for (const Op &op : ops)
        renderOp(out, op, tid, label_seq);
}

} // namespace

std::string
render(const TestSpec &spec)
{
    rexAssert(!spec.threads.empty(), "gen: spec with no threads");
    rexAssert(spec.numLocations >= 1 && spec.numLocations <= 3,
              "gen: spec location count out of range");

    std::string out = "name: " + spec.name + "\n";

    // init: locations first, then per-thread base registers.
    out += "init:";
    for (int loc = 0; loc < spec.numLocations; ++loc)
        out += " *" + locationName(loc) + "=0;";
    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
        for (int loc = 0; loc < spec.numLocations; ++loc) {
            out += " " + std::to_string(t) + ":" + baseReg(loc) + "=" +
                   locationName(loc) + ";";
        }
    }
    out.pop_back();  // trailing ';'
    out += "\n";

    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
        const ThreadSpec &thread = spec.threads[t];
        rexAssert(!(thread.svc && thread.interrupt),
                  "gen: thread with both SVC and interrupt");
        int label_seq = 0;
        std::string text;
        renderOps(text, thread.body, static_cast<int>(t), label_seq);
        if (thread.svc)
            text += "    SVC #0\n";
        if (thread.interrupt)
            text += interruptLabel(t) + ":\n";
        renderOps(text, thread.after, static_cast<int>(t), label_seq);
        if (text.empty())
            text = "    NOP\n";
        out += "thread " + std::to_string(t) + ":\n" + text;
    }

    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
        const ThreadSpec &thread = spec.threads[t];
        int label_seq = 100;  // disjoint from the body's label numbers
        std::string text;
        renderOps(text, thread.handler, static_cast<int>(t), label_seq);
        if (thread.eret)
            text += "    ERET\n";
        // A thread that takes an exception needs handler code even when
        // every handler op was shrunk away.
        if (text.empty() && (thread.svc || thread.interrupt))
            text = "    NOP\n";
        if (text.empty())
            continue;
        out += "handler " + std::to_string(t) + ":\n" + text;
    }

    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
        if (spec.threads[t].interrupt) {
            out += "interrupt " + std::to_string(t) + " at " +
                   interruptLabel(t) + "\n";
        }
    }

    out += "allowed: ";
    if (spec.condition.empty()) {
        out += "*" + locationName(0) + "=0";
    } else {
        for (std::size_t i = 0; i < spec.condition.size(); ++i) {
            const SpecCond &atom = spec.condition[i];
            if (i > 0)
                out += " & ";
            if (atom.memory) {
                out += "*" + locationName(atom.loc) + "=" +
                       std::to_string(atom.value);
            } else {
                out += std::to_string(atom.tid) + ":X" +
                       std::to_string(atom.slot) + "=" +
                       std::to_string(atom.value);
            }
        }
    }
    out += "\n";
    return out;
}

// ---------------------------------------------------------------------
// Lowering: the instructions parseLitmus would assemble from render().
// ---------------------------------------------------------------------

namespace {

using isa::AluOp;
using isa::Instruction;
using isa::Opcode;
using isa::RegId;

// The fixed registers of the conventions in spec.hh.
constexpr RegId kDepTemp = 5;
constexpr RegId kStoreData = 6;
constexpr RegId kAddrTemp = 7;
constexpr RegId kStatus = 8;
constexpr RegId kNoise = 9;

RegId
baseRegId(int loc)
{
    return static_cast<RegId>(10 + loc);
}

RegId
slotReg(int slot)
{
    return static_cast<RegId>(slot);
}

Instruction
plain(Opcode op)
{
    Instruction inst;
    inst.op = op;
    return inst;
}

Instruction
labelDef(std::string label)
{
    Instruction inst = plain(Opcode::Label);
    inst.label = std::move(label);
    return inst;
}

/** op rd, [rn] (also LDP/STP, whose second register is @p rs). */
Instruction
access(Opcode op, RegId rd, RegId rn, RegId rs = isa::kZeroReg)
{
    Instruction inst = plain(op);
    inst.rd = rd;
    inst.rn = rn;
    inst.rs = rs;
    return inst;
}

Instruction
movImm(RegId rd, std::uint64_t value)
{
    Instruction inst = plain(Opcode::MovImm);
    inst.rd = rd;
    inst.imm = static_cast<std::int64_t>(value);
    return inst;
}

Instruction
aluReg(AluOp alu, RegId rd, RegId rn, RegId rm)
{
    Instruction inst = plain(Opcode::Alu);
    inst.alu = alu;
    inst.rd = rd;
    inst.rn = rn;
    inst.rm = rm;
    return inst;
}

Instruction
addImm(RegId rd, RegId rn, std::uint64_t value)
{
    Instruction inst = plain(Opcode::Alu);
    inst.alu = AluOp::Add;
    inst.rd = rd;
    inst.rn = rn;
    inst.imm = static_cast<std::int64_t>(value);
    inst.aluImmediate = true;
    return inst;
}

/** EOR rd,Xslot,Xslot: the zero that carries a dependency. */
Instruction
eorZero(RegId rd, int slot)
{
    return aluReg(AluOp::Eor, rd, slotReg(slot), slotReg(slot));
}

Instruction
barrier(Opcode op, BarrierKind kind)
{
    Instruction inst = plain(op);
    inst.barrier = kind;
    return inst;
}

/** Lower one op into @p out, instruction for instruction as renderOp()
 *  writes it. */
void
lowerOp(isa::Program &out, const Op &op, int tid, int &label_seq)
{
    if (op.dep == Op::Dep::Ctrl) {
        std::string label = ctrlLabel(tid, label_seq++);
        Instruction branch = plain(Opcode::Cbnz);
        branch.rd = slotReg(op.depOn);
        branch.label = label;
        out.append(branch);
        out.append(labelDef(std::move(label)));
    }

    RegId base = baseRegId(op.loc);
    if (op.dep == Op::Dep::Addr) {
        out.append(eorZero(kDepTemp, op.depOn));
        out.append(aluReg(AluOp::Add, kAddrTemp, base, kDepTemp));
        base = kAddrTemp;
    }

    switch (op.kind) {
      case Op::Kind::Load: {
        Opcode load = op.acquire
                          ? Opcode::Ldar
                          : (op.acquirePc ? Opcode::Ldapr : Opcode::Ldr);
        out.append(access(load, slotReg(op.dst), base));
        break;
      }
      case Op::Kind::Store:
        if (op.dep == Op::Dep::Data) {
            out.append(eorZero(kDepTemp, op.depOn));
            out.append(addImm(kStoreData, kDepTemp, op.value));
        } else {
            out.append(movImm(kStoreData, op.value));
        }
        out.append(access(op.release ? Opcode::Stlr : Opcode::Str,
                          kStoreData, base));
        break;
      case Op::Kind::LoadPair:
        out.append(access(Opcode::Ldp, slotReg(op.dst), base,
                          slotReg(op.dst + 1)));
        break;
      case Op::Kind::StorePair:
        out.append(movImm(kStoreData, op.value));
        out.append(access(Opcode::Stp, kStoreData, base, kStoreData));
        break;
      case Op::Kind::Rmw:
        out.append(access(Opcode::Ldxr, slotReg(op.dst), base));
        out.append(eorZero(kStoreData, op.dst));
        out.append(addImm(kStoreData, kStoreData, op.value));
        out.append(access(Opcode::Stxr, kStoreData, base, kStatus));
        break;
      case Op::Kind::Fence:
        switch (op.fence) {
          case Op::Fence::DmbSy:
            out.append(barrier(Opcode::Dmb, BarrierKind::DmbSy));
            break;
          case Op::Fence::DmbLd:
            out.append(barrier(Opcode::Dmb, BarrierKind::DmbLd));
            break;
          case Op::Fence::DmbSt:
            out.append(barrier(Opcode::Dmb, BarrierKind::DmbSt));
            break;
          case Op::Fence::DsbSy:
            out.append(barrier(Opcode::Dsb, BarrierKind::DsbSy));
            break;
          case Op::Fence::Isb:
            out.append(barrier(Opcode::Isb, BarrierKind::Isb));
            break;
        }
        break;
      case Op::Kind::MovImm:
        out.append(movImm(kNoise, op.value));
        break;
    }
}

void
lowerOps(isa::Program &out, const std::vector<Op> &ops, int tid,
         int &label_seq)
{
    for (const Op &op : ops)
        lowerOp(out, op, tid, label_seq);
}

bool
isEmpty(const isa::Program &program)
{
    return program.code.empty() && program.labels.empty();
}

} // namespace

LitmusTest
lower(const TestSpec &spec)
{
    rexAssert(!spec.threads.empty(), "gen: spec with no threads");
    rexAssert(spec.numLocations >= 1 && spec.numLocations <= 3,
              "gen: spec location count out of range");

    LitmusTest test;
    test.name = spec.name;
    for (int loc = 0; loc < spec.numLocations; ++loc)
        test.locations.push_back(locationName(loc));
    test.initValues.assign(test.locations.size(), 0);

    // No op writes ICC_SGI1R_EL1, so no thread is an SGI receiver.
    test.threads.resize(spec.threads.size());
    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
        const ThreadSpec &thread = spec.threads[t];
        rexAssert(!(thread.svc && thread.interrupt),
                  "gen: thread with both SVC and interrupt");
        LitmusThread &out = test.threads[t];
        for (int loc = 0; loc < spec.numLocations; ++loc) {
            out.initRegs[baseRegId(loc)] =
                locationAddress(static_cast<LocationId>(loc));
        }

        const int tid = static_cast<int>(t);
        int label_seq = 0;
        lowerOps(out.program, thread.body, tid, label_seq);
        if (thread.svc)
            out.program.append(plain(Opcode::Svc));
        if (thread.interrupt) {
            out.interruptAt = interruptLabel(t);
            out.program.append(labelDef(*out.interruptAt));
        }
        lowerOps(out.program, thread.after, tid, label_seq);
        if (isEmpty(out.program))
            out.program.append(plain(Opcode::Nop));

        label_seq = 100;  // disjoint from the body's label numbers
        lowerOps(out.handler, thread.handler, tid, label_seq);
        if (thread.eret)
            out.handler.append(plain(Opcode::Eret));
        if (isEmpty(out.handler) && (thread.svc || thread.interrupt))
            out.handler.append(plain(Opcode::Nop));

        out.program.checkBranches();
        out.handler.checkBranches();
    }

    test.expectedAllowed = true;
    std::vector<CondAtom> &atoms = test.finalCond.atoms;
    if (spec.condition.empty()) {
        CondAtom atom;
        atom.kind = CondAtom::Kind::Memory;
        atoms.push_back(atom);
    }
    for (const SpecCond &cond : spec.condition) {
        CondAtom atom;
        atom.value = cond.value;
        if (cond.memory) {
            rexAssert(cond.loc >= 0 && cond.loc < spec.numLocations,
                      "gen: condition on an undeclared location");
            atom.kind = CondAtom::Kind::Memory;
            atom.loc = static_cast<LocationId>(cond.loc);
        } else {
            atom.tid = static_cast<ThreadId>(cond.tid);
            atom.reg = slotReg(cond.slot);
        }
        atoms.push_back(atom);
    }
    return test;
}

void
Features::merge(const Features &other)
{
    svc += other.svc;
    eret += other.eret;
    interrupt += other.interrupt;
    handler += other.handler;
    barrier += other.barrier;
    acqRel += other.acqRel;
    rmw += other.rmw;
    dep += other.dep;
    pair += other.pair;
    threads3 += other.threads3;
}

std::string
Features::toString() const
{
    std::string out;
    auto item = [&](const char *name, std::uint64_t count) {
        if (!out.empty())
            out += " ";
        out += std::string(name) + " " + std::to_string(count);
    };
    item("svc", svc);
    item("eret", eret);
    item("interrupt", interrupt);
    item("handler", handler);
    item("barrier", barrier);
    item("acqrel", acqRel);
    item("rmw", rmw);
    item("dep", dep);
    item("pair", pair);
    item("threads3", threads3);
    return out;
}

Features
specFeatures(const TestSpec &spec)
{
    Features f;
    auto scanOps = [&](const std::vector<Op> &ops) {
        for (const Op &op : ops) {
            if (op.kind == Op::Kind::Fence)
                f.barrier = 1;
            if (op.acquire || op.acquirePc || op.release)
                f.acqRel = 1;
            if (op.kind == Op::Kind::Rmw)
                f.rmw = 1;
            if (op.dep != Op::Dep::None)
                f.dep = 1;
            if (op.kind == Op::Kind::LoadPair ||
                    op.kind == Op::Kind::StorePair) {
                f.pair = 1;
            }
        }
    };
    for (const ThreadSpec &thread : spec.threads) {
        if (thread.svc)
            f.svc = 1;
        if (thread.interrupt)
            f.interrupt = 1;
        if (thread.eret)
            f.eret = 1;
        // Exception-taking threads always have handler code: render()
        // emits a NOP handler even when every handler op was shrunk.
        if (!thread.handler.empty() || thread.eret || thread.svc ||
                thread.interrupt) {
            f.handler = 1;
        }
        scanOps(thread.body);
        scanOps(thread.after);
        scanOps(thread.handler);
    }
    if (spec.threads.size() >= 3)
        f.threads3 = 1;
    return f;
}

} // namespace rex::gen
