/**
 * @file
 * In-order blocking core model.
 *
 * Executes one instruction per cycle; memory operations block until
 * the memory port responds. The core supports register checkpointing
 * and restart, which the SLE/TLR engine uses for misspeculation
 * recovery. Stall cycles are attributed to "lock" or "data" buckets
 * using a harness-installed address classifier, reproducing the
 * paper's Figure 11 execution-time breakdown.
 */

#ifndef TLR_CPU_CORE_HH
#define TLR_CPU_CORE_HH

#include <array>
#include <functional>

#include "cpu/mem_port.hh"
#include "cpu/program.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tlr
{

/** Architectural state snapshot used for misspeculation recovery. */
struct Checkpoint
{
    std::array<std::uint64_t, numRegs> regs{};
    int pc = 0;
};

class Core
{
  public:
    Core(EventQueue &eq, StatSet &stats, CpuId id, Rng rng);

    void setProgram(ProgramPtr prog) { prog_ = std::move(prog); }
    void setPort(MemPort *port) { port_ = port; }
    /** Classifier for stall attribution: true => lock address. */
    void setLockClassifier(std::function<bool(Addr)> f)
    {
        isLockAddr_ = std::move(f);
    }
    /** Invoked once when the program executes Halt. */
    void setHaltHook(std::function<void(CpuId)> f)
    {
        onHalt_ = std::move(f);
    }

    CpuId id() const { return id_; }
    bool halted() const { return state_ == State::Halted; }

    /** Schedule the first fetch. */
    void start(Tick when = 0);

    /** Memory port response entry point (possibly stale). */
    void memResponse(const MemResponse &resp);

    /** Simulate OS de-scheduling: stop executing for @p duration
     *  cycles, then resume at the current instruction (any in-flight
     *  memory wait is squashed and the instruction re-executes).
     *  Callers must notify the speculation engine first so an active
     *  transaction aborts (SpecEngine::descheduled). */
    void suspend(Tick duration);

    /** @{ Checkpoint support for the speculation engine. */
    Checkpoint takeCheckpoint() const;
    /** Restore state and resume execution next cycle. Any in-flight
     *  memory wait is squashed (its response will be stale). */
    void restoreCheckpoint(const Checkpoint &cp);
    std::uint64_t currentGen() const { return gen_; }
    /** @} */

    /** Register read (test support). */
    std::uint64_t reg(Reg r) const { return regs_[r]; }
    void setReg(Reg r, std::uint64_t v) { if (r) regs_[r] = v; }
    int pc() const { return pc_; }

    Rng &rng() { return rng_; }

  private:
    enum class State { Idle, Running, WaitMem, Halted };

    void tick();
    void scheduleTick(Tick delta);
    void execute(const Instruction &inst);
    void issueMem(const Instruction &inst);
    void accountStall(Tick cycles, Addr addr);

    EventQueue &eq_;
    StatSet &stats_;
    const CpuId id_;
    Rng rng_;

    ProgramPtr prog_;
    MemPort *port_ = nullptr;
    std::function<bool(Addr)> isLockAddr_;
    std::function<void(CpuId)> onHalt_;

    std::array<std::uint64_t, numRegs> regs_{};
    int pc_ = 0;
    State state_ = State::Idle;

    /** Wait-generation: bumped on every restart/squash so in-flight
     *  responses from a squashed wait are discarded. */
    std::uint64_t gen_ = 0;

    /** Lazily resolved preemption counter (stable StatSet reference;
     *  avoids a string-keyed lookup per preemption). */
    std::uint64_t *preemptions_ = nullptr;
    /** Deferred suspension: a preemption that lands while a
     *  non-replayable memory operation is in flight takes effect at
     *  its completion (instruction boundary). */
    Tick pendingSuspend_ = 0;
    Tick waitStart_ = 0;
    Addr waitAddr_ = 0;
    int pendingRd_ = 0;
    bool pendingIsSc_ = false;
    bool pendingIsLoad_ = false;

    /** Stats (references into the StatSet). */
    std::uint64_t &instRetired_;
    std::uint64_t &busyCycles_;
    std::uint64_t &delayCycles_;
    std::uint64_t &lockCycles_;
    std::uint64_t &dataStallCycles_;
    std::uint64_t &haltTick_;
};

} // namespace tlr

#endif // TLR_CPU_CORE_HH
