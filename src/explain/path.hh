/**
 * @file
 * Per-transaction critical-path accountant.
 *
 * A view over TxnState: every critical-section instance the reducer
 * closes has its wall-clock ticks decomposed into four exclusive
 * buckets, classified with the priority
 * defer-wait > coherence-miss > restart-redo > exec:
 *
 *   - defer : ticks this cpu's own request sat deferred behind a
 *             transactional owner (paper Section 3.1)
 *   - miss  : ticks waiting for line data outside any deferral
 *   - redo  : remaining ticks before the last restart — work that was
 *             thrown away and re-executed
 *   - exec  : everything else (useful forward progress)
 *
 * Instances carry the reducer's serial number in elision order, so reports
 * can name them ("T17@cpu3") consistently across online and offline
 * analysis. Closed instances are kept per cpu in chronological order
 * for causal-chain resolution: given (cpu, tick), instanceAt() finds
 * the transaction that held the resource at that moment.
 */

#ifndef TLR_EXPLAIN_PATH_HH
#define TLR_EXPLAIN_PATH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/txn_state.hh"

namespace tlr
{

/** One closed critical-section instance with its tick decomposition. */
struct TxnInstance
{
    std::uint64_t serial = 0; ///< global elision-order id
    std::int16_t cpu = -1;
    Addr lock = 0;
    Tick begin = 0;
    Tick end = 0;
    unsigned restarts = 0;
    std::string outcome; ///< "commit" | "fallback:..." | "quantum-end"
                         ///< | "unfinished"

    /** @{ tick decomposition (sums to end - begin) */
    Tick execTicks = 0;
    Tick deferTicks = 0;
    Tick missTicks = 0;
    Tick redoTicks = 0;
    /** @} */

    /** Longest single deferral suffered, for causal-chain walking. */
    Tick longestDeferSpan = 0;
    std::int16_t longestDeferOwner = -1;
    Addr longestDeferLine = 0;
    Tick longestDeferTick = 0; ///< tick that deferral started

    /** Winner cpu of the last conflict-caused restart, -1 if none. */
    std::int16_t lastRestartWinner = -1;

    Tick total() const { return end > begin ? end - begin : 0; }
    Tick delay() const { return deferTicks + missTicks + redoTicks; }
    std::string
    name() const
    {
        // Built with append, not operator+: gcc 12's -Wrestrict
        // false-positives on chained const char* + std::string&&.
        std::string s = "T";
        s += std::to_string(serial);
        s += "@cpu";
        s += std::to_string(cpu);
        return s;
    }
};

class CriticalPathAccountant : public TxnStateView
{
  public:
    using TxnStateView::TxnStateView;

    void apply(const TxnState::Change &c) override;

    /** All closed instances, global serial order. */
    const std::vector<TxnInstance> &instances() const
    {
        return instances_;
    }

    /** The instance live on @p cpu at @p tick, or null. */
    const TxnInstance *instanceAt(std::int16_t cpu, Tick tick) const;

  private:
    /** A wait; a deferral also names its owner and line. */
    struct Interval
    {
        Tick start = 0;
        Tick end = 0;
        std::int16_t owner = -1;
        Addr line = 0;
    };

    /** A miss still waiting for its fill, keyed by line. */
    struct OpenMiss
    {
        Addr line = 0;
        Tick start = 0;
    };

    /** Everything kept for one cpu; the vectors keep their capacity
     *  from one instance to the next. */
    struct CpuState
    {
        /** Closed waits of the open instance. */
        std::vector<Interval> defer;
        std::vector<Interval> miss;
        /** Misses not yet filled, ascending line. */
        std::vector<OpenMiss> missOpen;
        /** Indices into instances_ of this cpu's closed instances,
         *  chronological. */
        std::vector<size_t> closed;
    };

    void closeInstance(const TxnState::Txn &txn);
    void classify(CpuState &o, TxnInstance &t, Tick lastRestart);

    std::vector<CpuState> cpus_; ///< indexed by cpu
    std::vector<TxnInstance> instances_;
    /** @{ classify() scratch */
    std::vector<Interval> clipDefer_;
    std::vector<Interval> clipMiss_;
    std::vector<Tick> bounds_;
    /** @} */
};

} // namespace tlr

#endif // TLR_EXPLAIN_PATH_HH
