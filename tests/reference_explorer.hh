/**
 * @file
 * A test-only reference explorer: the operational machine and explorer
 * as they were before the state became flat. Its machine keeps every
 * register, sysreg and in-flight op in nested containers, is copied
 * whole per DFS frame, and is memoised on a serialised string key in an
 * unordered_set, and it expands every enabled transition. It exists so
 * that the production explorer, which also prunes with a persistent-set
 * reduction, can be checked against an independent, unreduced
 * implementation: the same outcomes and condition reachability, and no
 * more visited states.
 *
 * Its stateKey() leaves out the GIC priority mask, priority stack and
 * per-INTID priorities, and the attributes of in-flight ops. Its state
 * counts equalled those of the unreduced flat explorer on every builtin
 * under every profile, on 20,000 random hammer seeds and on the cycle
 * inventory, so those omissions never merged two distinct states there.
 */

#ifndef REX_TESTS_REFERENCE_EXPLORER_HH
#define REX_TESTS_REFERENCE_EXPLORER_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gic/cpu_interface.hh"
#include "gic/gic.hh"
#include "litmus/litmus.hh"
#include "operational/explorer.hh"
#include "operational/machine.hh"
#include "operational/profile.hh"

namespace rex::op::reference {

/** The seed's machine: deep-copied per frame, string-keyed. */
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

    };

    /** Reset to the initial state. */
    void reset();

    /** All transitions enabled in the current state. */
    std::vector<Transition> enabled() const;

    /** Apply one (enabled) transition. */
    void apply(const Transition &transition);

    /** True when every thread has finished and drained. */
    bool done() const;

    /** The final-state projection (valid when done()). */
    Outcome outcome() const;

    /**
     * A canonical serialisation of the state, for memoisation in
     * exhaustive exploration.
     */
    std::string stateKey() const;

  private:
    /** One in-flight memory operation. */
    struct InFlightOp {
        enum class Kind : std::uint8_t { Load, Store, Barrier };
        Kind kind = Kind::Load;
        LocationId loc = 0;
        std::uint64_t storeValue = 0;
        isa::RegId destReg = isa::kZeroReg;  //!< load target / STXR status
        BarrierKind barrier = BarrierKind::DmbSy;
        bool acquire = false;
        bool acquirePc = false;
        bool release = false;
        bool exclusive = false;
        isa::RegId statusReg = isa::kZeroReg;  //!< STXR status register
        bool done = false;
        std::uint64_t loadedValue = 0;
    };

    /** One simulated hardware thread. */
    struct ThreadState {
        std::size_t pc = 0;
        bool inHandler = false;
        std::size_t handlerPc = 0;
        bool finished = false;

        std::array<std::uint64_t, isa::kNumRegs> regs{};
        /** In-flight op index producing the register, or -1 if ready. */
        std::array<int, isa::kNumRegs> regSource{};

        std::array<std::uint64_t, isa::kNumSysregs> sysregs{};

        bool masked = false;
        bool savedMasked = false;

        /** NZCV state: the last comparison's operands. */
        std::int64_t cmpLhs = 0;
        std::int64_t cmpRhs = 0;
        int interruptsTaken = 0;
        bool forgoInterrupt = false;

        /** Exclusive monitor: location and memory version at LDXR. */
        std::optional<std::pair<LocationId, std::uint64_t>> monitor;

        std::vector<InFlightOp> ops;
    };

    bool regReady(const ThreadState &thread, isa::RegId reg) const;
    std::size_t inFlightCount(const ThreadState &thread) const;

    bool canIssue(int tid) const;
    bool canSatisfy(int tid, int op_index) const;
    bool canCommit(int tid, int op_index) const;
    bool atInterruptPoint(int tid) const;
    bool interruptDeliverable(int tid) const;

    void issue(int tid);
    void satisfy(int tid, int op_index);
    void commit(int tid, int op_index);
    void takeInterrupt(int tid);

    void enterHandler(ThreadState &thread, std::uint64_t return_pc);
    void takeFault(int tid, std::uint64_t address);
    void completeBarriers();

    /** Find the youngest not-done earlier same-location store. */
    int forwardingSource(const ThreadState &thread, int op_index,
                         LocationId loc) const;

    const LitmusTest &_test;
    CoreProfile _profile;

    std::vector<ThreadState> _threads;
    std::vector<std::uint64_t> _memory;
    std::vector<std::uint64_t> _memVersion;
    gic::Gic _gic;

    /** The (stateless) CPU-interface view for one PE. */
    gic::CpuInterface cpuInterface(int tid) const;
};

/** Exhaustively explore @p test on @p profile with the reference
 *  machine; the same contract as op::explore. */
ExploreResult explore(const LitmusTest &test, const CoreProfile &profile,
                      std::size_t max_states = 2'000'000);

} // namespace rex::op::reference

#endif // REX_TESTS_REFERENCE_EXPLORER_HH
