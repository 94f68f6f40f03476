/**
 * @file
 * The SLE/TLR speculation engine — the paper's primary contribution.
 *
 * Sits between the core and its L1 controller. Implements:
 *
 *  - Speculative Lock Elision (Rajwar & Goodman, MICRO'01), the
 *    enabling substrate: silent store-pair detection on the dynamic
 *    store stream (an SC that would change a just-load-linked value,
 *    paired with a later store restoring it), register checkpointing,
 *    speculative store buffering, atomic commit, misspeculation
 *    recovery and fallback to real lock acquisition;
 *
 *  - Transactional Lock Removal (this paper): globally-unique
 *    (logical clock, cpu) timestamps attached to all transactional
 *    misses, timestamp retention across conflict restarts, the
 *    monotonic clock-update rule on commit, and resource-constraint
 *    fallback — together with the deferral machinery in L1Controller
 *    this yields lock-free, starvation-free execution under conflicts;
 *
 *  - the read-modify-write predictor of Section 3.1.2 and the
 *    exclusive-request escalation for repeated upgrade-induced
 *    violations.
 */

#ifndef TLR_CORE_SPEC_ENGINE_HH
#define TLR_CORE_SPEC_ENGINE_HH

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "coherence/l1_controller.hh"
#include "coherence/spec_hooks.hh"
#include "core/predictors.hh"
#include "core/timestamp.hh"
#include "cpu/core.hh"
#include "cpu/mem_port.hh"
#include "mem/write_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/flat_containers.hh"
#include "sim/stats.hh"
#include "trace/sink.hh"

namespace tlr
{

struct SpecConfig
{
    bool enableSle = false;
    bool enableTlr = false;
    bool strictTimestamps = false;   ///< disable the Section 3.2 relaxation
    bool deferUntimestamped = true;  ///< paper Section 2.2, 2nd approach
    bool enableRmwPredictor = true;
    unsigned maxElisionDepth = 8;    ///< paper Table 2
    unsigned sleMaxRetries = 1;      ///< SLE restarts before lock fallback
    unsigned tlrMaxRetries = 256;    ///< non-committing-region safety cap
    /** Maximum duration of one region instance, elision to commit,
     *  across restarts (paper Section 3.3: the critical section must
     *  execute within a scheduling quantum). A region that spins
     *  forever — e.g., a wrongly-elided barrier arrival whose count
     *  can never advance because every arrival was elided — has no
     *  conflicts to abort on; this bound rescues it into real lock
     *  acquisition. */
    Tick specMaxCycles = 100'000;
    unsigned writeBufferLines = 64;  ///< paper Table 2
    unsigned silentPairEntries = 64; ///< paper Table 2
    unsigned rmwEntries = 128;       ///< paper Table 2
    unsigned rmwWindow = 32;         ///< recent loads matched for training
};

class SpecEngine : public MemPort, public SpecHooks
{
  public:
    SpecEngine(EventQueue &eq, StatSet &stats, CpuId id, SpecConfig cfg);

    void setCore(Core *core) { core_ = core; }
    void setL1(L1Controller *l1) { l1_ = l1; }
    void setTrace(TraceSink *sink) { trace_ = sink; }

    /** @{ MemPort (core-facing). */
    void request(const CoreMemOp &op) override;
    void io(CpuId cpu) override;
    /** @} */

    /** The OS de-scheduled this thread (paper Section 4): any active
     *  transaction aborts — its speculative updates are discarded and
     *  the (never-acquired) lock stays free, so other threads keep
     *  making progress while this one is off the cpu. */
    void descheduled();

    /** @{ SpecHooks (controller-facing). */
    bool specActive() const override { return mode_ == Mode::Spec; }
    bool tlrActive() const override
    {
        return mode_ == Mode::Spec && cfg_.enableTlr;
    }
    /** The instance timestamp. Valid while the TLR instance lives,
     *  including the window between a restart and the re-elision —
     *  requests reissued in that window must keep their priority
     *  (paper Section 2.1.2: the timestamp is retained and reused). */
    Timestamp currentTs() const override
    {
        return tsHeld_ ? activeTs_ : Timestamp{};
    }
    bool strictTimestamps() const override { return cfg_.strictTimestamps; }
    bool deferUntimestamped() const override
    {
        return cfg_.deferUntimestamped;
    }
    void noteConflictTs(const Timestamp &ts) override;
    void conflictAbort(Addr line_addr, AbortReason reason) override;
    void resourceAbort(Addr line_addr, AbortReason reason) override;
    void specMshrDrained(Addr line_addr) override;
    void cacheOpDone(const CacheOp &op, std::uint64_t value) override;
    /** @} */

    /** @{ introspection (tests / harness) */
    std::uint64_t logicalClock() const { return clock_; }
    size_t elisionDepth() const { return stack_.size(); }
    bool timestampHeld() const { return tsHeld_; }
    const WriteBuffer &writeBuffer() const { return wb_; }
    /** @} */

  private:
    enum class Mode { Inactive, Spec };

    struct Elision
    {
        Addr lockAddr;           ///< word address of the elided lock
        std::uint64_t freeVal;   ///< value restored by the release
        std::uint64_t heldVal;   ///< value the elided SC would write
        int acquirePc;
    };

    /** Attempt to elide the SC described by @p op. @return true if
     *  the store was elided (a region started or nested). */
    bool tryElide(const CoreMemOp &op);
    void handleSpecStore(const CoreMemOp &op);
    void finishSpecAtomic(const CoreMemOp &op, std::uint64_t old_value,
                          bool mark_line);
    void beginCommit();
    void tryFinishCommit();
    void doAbort(AbortReason reason, bool resource, Addr line_addr = 0);
    void respondCore(std::uint64_t value, Tick delay);
    void issueCacheOp(CacheOp::Kind kind, const CoreMemOp &op, bool spec,
                      bool is_ll);

    EventQueue &eq_;
    StatSet &stats_;
    const CpuId id_;
    SpecConfig cfg_;
    Core *core_ = nullptr;
    L1Controller *l1_ = nullptr;
    TraceSink *trace_ = nullptr;

    Mode mode_ = Mode::Inactive;
    std::vector<Elision> stack_;
    Checkpoint checkpoint_;
    WriteBuffer wb_;
    bool committing_ = false;

    /** @{ TLR timestamp state (paper Section 2.1.2) */
    std::uint64_t clock_ = 0;
    Timestamp activeTs_;
    bool tsHeld_ = false;
    std::uint64_t maxConflictClock_ = 0;
    /** Last conflicting contender seen this instance (trace payload:
     *  TxnRestart a3 carries its packed meta so the explainer can
     *  attribute the restart to a specific owner). Invalid until the
     *  first conflict of the instance. */
    Timestamp lastConflictTs_;
    /** @} */

    unsigned retriesUsed_ = 0;
    std::uint64_t instanceGen_ = 0; ///< quantum-timer staleness guard
    /** True from the first elision of a critical-section instance
     *  until it commits or falls back. Restarts keep the instance
     *  (and, under TLR, its timestamp) alive. */
    bool instanceActive_ = false;
    int noElideOncePc_ = -1;
    int regionPc_ = -1; ///< outermost elided acquire (predictor index)
    FlatSet<Addr> escalation_; ///< lines to read-for-ownership

    SilentPairPredictor pairPred_;
    RmwPredictor rmwPred_;

    /** Lines that have ever been LL/SC targets on this processor.
     *  These are synchronization variables: the RMW predictor must
     *  not learn them, or spin reads would turn into exclusive
     *  requests and livelock every LL/SC sequence. The paper's
     *  predictor explicitly targets read-modify-write *data* within
     *  critical sections (Section 3.1.2). */
    FlatSet<Addr> syncLines_;

    std::optional<CoreMemOp> pendingCore_;
    std::uint64_t token_ = 0;

    /** Last load-linked observed (the elision idiom's first half). */
    struct
    {
        bool valid = false;
        Addr addr = 0;
        std::uint64_t value = 0;
    } lastLl_;

    /** @{ stats */
    std::uint64_t &elisions_;
    std::uint64_t &commits_;
    std::uint64_t &restarts_;
    std::uint64_t &fallbacks_;
    std::uint64_t &exclEscalations_;
    /** Per-reason abort counters, resolved from the StatSet on first
     *  use so the abort path never builds a string key. Lazy (rather
     *  than eager at construction) so a run's stat dump still lists
     *  only the abort reasons that actually occurred. */
    std::array<std::uint64_t *, numAbortReasons> abortCounters_{};
    /** @} */
};

} // namespace tlr

#endif // TLR_CORE_SPEC_ENGINE_HH
