/**
 * @file
 * The abstract-microarchitectural operational machine.
 *
 * This is the repository's substitute for the paper's hardware testing:
 * an executable machine in the style of Fig. 1/Fig. 3's tree of FDX
 * instances, restricted to non-speculative issue (it never rolls back),
 * with out-of-order load satisfaction, store buffering, forwarding, and
 * exception/interrupt machinery. A CoreProfile controls which
 * reorderings are performed.
 *
 * Machine transitions:
 *  - Issue: fetch-decode-execute the next instruction in (program-order)
 *    issue; register ops complete at issue, memory ops enter the
 *    in-flight window;
 *  - Satisfy: an eligible in-flight load reads (memory or forwarded);
 *  - Commit: an eligible in-flight store propagates to memory;
 *  - TakeInterrupt / ForgoInterrupt: deliverable IRQs at FDX boundaries.
 *
 * Synchronous faults drain the window before redirecting (the
 * FEAT_ETS2 behaviour, §3.3); SVC/ERET redirect without draining, which
 * is what lets accesses reorder across exception boundaries (§3.2).
 *
 * A scheduler (random or exhaustive; see runner.hh / explorer.hh) picks
 * among enabled transitions. An Issue is local (issueIsLocal()) when
 * its instruction does not touch the GIC and no other thread's SGI can
 * interrupt the thread before it; the exhaustive explorer then expands
 * that Issue alone. Barriers complete eagerly after each transition,
 * and only the acting thread's can: a barrier waits on its own
 * thread's older ops alone.
 *
 * The state is flat: one trivially-copyable run of bytes, laid out once
 * per test, whose bytes are exactly its memo key. The layout keeps, per
 * thread, only the live registers (non-zero initially, named by some
 * instruction of the program or handler, or by the final condition) and
 * the sysregs the thread can write, then its in-flight operations as
 * packed records; after the threads come memory, per-location commit
 * versions and, when the test touches the GIC at all, one
 * gic::Redistributor per PE. Unused bytes are always zero, so two
 * states are equal exactly when their bytes are.
 */

#ifndef REX_OPERATIONAL_MACHINE_HH
#define REX_OPERATIONAL_MACHINE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "gic/cpu_interface.hh"
#include "gic/gic.hh"
#include "litmus/litmus.hh"
#include "operational/profile.hh"

namespace rex::op {

/**
 * The final-state projection of one run: the condition-relevant
 * registers and all memory locations.
 */
struct Outcome {
    std::map<std::string, std::uint64_t> values;

    /** Canonical string form, usable as a histogram key. */
    std::string key() const;

    /** Does this outcome satisfy the test's final condition? */
    bool satisfiesCondition(const LitmusTest &test) const;
};

/**
 * One slot of an Outcome: a register the final condition names, or a
 * memory location. Both semantics project a final state onto the same
 * slots (outcomeSlots()), which is what makes the soundness hammer's
 * comparison of operational and axiomatic outcomes meaningful.
 */
struct OutcomeSlot {
    enum class Kind : std::uint8_t { Register, Location };
    Kind kind = Kind::Register;
    ThreadId tid = 0;     //!< Register only
    isa::RegId reg = 0;   //!< Register only
    LocationId loc = 0;   //!< Location only
    std::string name;     //!< "tid:Xn" or "*loc", its name in key()
};

/** The outcome slots of @p test: each register the final condition
 *  names, once, plus every location, sorted by name (the order of
 *  Outcome::key()). */
std::vector<OutcomeSlot> outcomeSlots(const LitmusTest &test);

/** The values of @p key, an Outcome::key() over @p slots, in slot
 *  order. */
std::vector<std::uint64_t> outcomeValues(
    const std::vector<OutcomeSlot> &slots, std::string_view key);

/** The operational machine for one litmus test run. */
class Machine
{
  public:
    Machine(const LitmusTest &test, const CoreProfile &profile);

    /** One schedulable transition. */
    struct Transition {
        enum class Kind : std::uint8_t {
            Issue,
            Satisfy,
            Commit,
            TakeInterrupt,
            ForgoInterrupt,
        };
        Kind kind = Kind::Issue;
        int thread = 0;
        int opIndex = -1;  //!< for Satisfy/Commit

        std::string toString() const;
    };

    /** Reset to the initial state. */
    void reset();

    /** All transitions enabled in the current state. */
    std::vector<Transition> enabled() const;

    /**
     * Write the enabled transitions to @p out, which has room for
     * maxEnabled() of them, in the same order as enabled().
     * @return how many were written.
     */
    std::size_t enabled(Transition *out) const;

    /** An upper bound on the number of enabled transitions; it rises
     *  only when the layout widens (see setState()). */
    std::size_t maxEnabled() const { return _layout.maxEnabled; }

    /**
     * True when thread @p tid's next Issue is local: it touches only
     * the thread's own header, registers, sysregs and ops, and no other
     * thread can make this thread's interrupt deliverable before it.
     * Such an Issue commutes with every other transition and stays
     * enabled under all of them (see explorer.hh).
     */
    bool issueIsLocal(int tid) const;

    /** Apply one (enabled) transition. */
    void apply(const Transition &transition);

    /** True when every thread has finished and drained. */
    bool done() const;

    /** The final-state projection (valid when done()). */
    Outcome outcome() const;

    /**
     * The state: stateBytes() bytes (a multiple of 8), which are its
     * exact memo key for exhaustive exploration.
     */
    const std::byte *state() const { return _state.data(); }
    std::size_t stateBytes() const { return _state.size(); }

    /** The state's bytes as a key (valid until the state changes). */
    std::string_view stateKey() const;

    /**
     * Replace the state with @p bytes, a state() this machine produced
     * under the same stateBytes().
     *
     * stateBytes() is fixed per test except in one case: a thread that
     * issues more accesses than its layout reserved (a fault or a loop
     * re-running code) widens the layout, which changes stateBytes()
     * and makes earlier states unusable.
     */
    void setState(const std::byte *bytes);

  private:
    /** One in-flight memory operation: a packed 16-byte record. */
    struct InFlightOp {
        enum class Kind : std::uint8_t { Load, Store, Barrier };
        enum class Order : std::uint8_t {
            Plain,
            Acquire,    //!< LDAR
            AcquirePc,  //!< LDAPR
            Release,    //!< STLR
        };
        /** A store's value, or the value a satisfied load read. */
        std::uint64_t value;
        std::uint16_t loc;
        Kind kind;
        Order order;
        BarrierKind barrier;
        /** Load target, or STXR status register. */
        isa::RegId reg;
        bool exclusive;
        bool done;
    };

    /** The fixed part of one simulated hardware thread. */
    struct ThreadHeader {
        /** NZCV state: the last comparison's operands. */
        std::int64_t cmpLhs;
        std::int64_t cmpRhs;
        std::uint32_t pc;
        std::uint32_t handlerPc;
        std::uint32_t numOps;
        /** Exclusive monitor: memory version of monitorLoc at LDXR. */
        std::uint32_t monitorVersion;
        std::uint16_t monitorLoc;
        bool hasMonitor;
        bool inHandler;
        bool finished;
        bool masked;
        bool savedMasked;
        bool forgoInterrupt;
        std::uint8_t interruptsTaken;
        std::uint8_t pad[7];
    };

    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** Where one thread lives in the state, decoded once per test. */
    struct ThreadLayout {
        /** State slot of each register / sysreg; -1 when not kept
         *  (a register never touched, a sysreg never written). */
        std::array<std::int8_t, isa::kNumRegs> regSlot;
        std::array<std::int8_t, isa::kNumSysregs> sysregSlot;
        std::size_t numRegs = 0;
        std::size_t numSysregs = 0;
        std::uint32_t opCapacity = 0;
        /** Byte offsets; the thread's block ends with its ops. */
        std::size_t header = 0;
        std::size_t regs = 0;
        std::size_t sysregs = 0;
        std::size_t regSource = 0;
        std::size_t ops = 0;
        /** Program index of the "interrupt at" label, or kAbsent. */
        std::size_t interruptAt = kAbsent;
        /** Branch target of each instruction (0 for non-branches). */
        std::vector<std::uint32_t> programTargets;
        std::vector<std::uint32_t> handlerTargets;
    };

    struct Layout {
        std::vector<ThreadLayout> threads;
        std::size_t memory = 0;
        std::size_t versions = 0;
        /** Offset of the redistributors, or kAbsent when the test
         *  never touches the GIC (its state then never changes). */
        std::size_t gic = kAbsent;
        std::size_t bytes = 0;
        std::size_t maxEnabled = 0;
    };

    /** One thread's view of the state: pointers into _state. */
    struct Thread {
        ThreadHeader &h;
        std::uint64_t *regs;
        std::uint64_t *sysregs;
        std::int16_t *regSource;
        InFlightOp *ops;
        const ThreadLayout &layout;

        std::uint64_t &reg(isa::RegId r) const
        {
            return regs[layout.regSlot[r]];
        }
        std::int16_t &source(isa::RegId r) const
        {
            return regSource[layout.regSlot[r]];
        }
        bool ready(isa::RegId r) const { return source(r) < 0; }
        std::uint64_t &sysreg(isa::Sysreg s) const;
        /** The effective address of a memory access. */
        std::uint64_t address(const isa::Instruction &inst) const;
        std::size_t inFlightCount() const;
    };

    Layout buildLayout(const std::vector<std::uint32_t> &op_capacity) const;

    /** A zeroed state buffer for @p layout, holding the typed objects
     *  the layout places in it. */
    static std::vector<std::byte> emptyState(const Layout &layout,
                                             std::size_t num_locations);

    /** Give thread @p tid room for more ops, keeping the state. */
    void grow(int tid);

    /** A view of thread @p tid. The state is logically const in const
     *  members, which only read through the view. */
    Thread thread(int tid) const;
    std::uint64_t *memory() const;
    std::uint32_t *versions() const;
    gic::Redistributor *redistributors() const;

    bool canIssue(int tid) const;
    bool canSatisfy(int tid, int op_index) const;
    bool canCommit(int tid, int op_index) const;
    bool interruptDeliverable(int tid) const;

    void issue(int tid);
    void satisfy(int tid, int op_index);
    void commit(int tid, int op_index);
    void takeInterrupt(int tid);

    /** Append @p op to thread @p tid (growing if full); its index. */
    int pushOp(int tid, const InFlightOp &op);

    void enterHandler(const Thread &thread, std::uint64_t return_pc);
    void takeFault(int tid, std::uint64_t address);
    /** Complete thread @p tid's barriers whose older ops are done. */
    void completeBarriers(int tid);

    /** Find the youngest not-done earlier same-location store. */
    static int forwardingSource(const Thread &thread, int op_index,
                                std::uint16_t loc);

    const LitmusTest &_test;
    CoreProfile _profile;
    std::vector<OutcomeSlot> _outcomeSlots;
    Layout _layout;
    std::vector<std::byte> _state;

    /** The (stateless) CPU-interface view for one PE. */
    gic::CpuInterface cpuInterface(int tid) const;
};

} // namespace rex::op

#endif // REX_OPERATIONAL_MACHINE_HH
