/**
 * @file
 * Online wait-for/defer graph builder.
 *
 * A view over TxnState that materializes the paper's implicit
 * conflict structure: every deferral (paper Section 3.1)
 * becomes an edge  waiter-cpu → owner-cpu  carrying the contended
 * line, the waiter's timestamp and the tick span from deferral to
 * service; every conflict-caused restart becomes a loser → winner
 * edge. On top of the live edge set the builder detects the two
 * pathologies the relaxed-timestamp path (Section 3.2) is supposed to
 * avoid: wait cycles (A defers behind B while B defers behind A,
 * possibly through intermediaries) and convoys (many simultaneous
 * waiters parked on one line).
 */

#ifndef TLR_EXPLAIN_GRAPH_HH
#define TLR_EXPLAIN_GRAPH_HH

#include <cstdint>
#include <map>
#include <vector>

#include "sim/flat_containers.hh"
#include "trace/txn_state.hh"

namespace tlr
{

/** One deferral: @c waiter parked behind @c owner on @c line. Not a
 *  TxnState::Deferral plus fields: the graph keeps one edge for every
 *  deferral of the run, and this layout is 16 bytes smaller. */
struct DeferEdge
{
    std::int16_t waiter = -1;
    std::int16_t owner = -1;
    Addr line = 0;
    Tick start = 0;    ///< tick the request was deferred
    Tick end = 0;      ///< service tick, or stream end if never
    bool serviced = false;
    bool relaxed = false; ///< via the Section 3.2 relaxation
    ServiceCause cause = ServiceCause::Chain;
    Timestamp waiterTs;

    Tick span() const { return end > start ? end - start : 0; }
};

/** One conflict loss: @c loser restarted because of @c winner. */
struct RestartEdge
{
    std::int16_t loser = -1;
    std::int16_t winner = -1; ///< -1 when the trace had no contender
    Addr line = 0;
    Tick tick = 0;
    std::uint64_t reason = 0; ///< AbortReason
};

/** A wait cycle observed among concurrently-pending deferrals. */
struct CycleHit
{
    std::vector<std::int16_t> cpus; ///< cycle path, waiter order
    Tick tick = 0;                  ///< tick the closing edge appeared
};

/** Per-line contention aggregate. */
struct LineContention
{
    std::uint64_t defers = 0;
    std::uint64_t relaxedDefers = 0;
    std::uint64_t restarts = 0;
    Tick waitTicks = 0;       ///< sum of completed defer spans
    unsigned maxQueue = 0;    ///< max simultaneous waiters (convoy)
};

class ConflictGraphBuilder : public TxnStateView
{
  public:
    using TxnStateView::TxnStateView;

    void apply(const TxnState::Change &c) override;

    const std::vector<DeferEdge> &edges() const { return edges_; }
    const std::vector<RestartEdge> &restartEdges() const
    {
        return restarts_;
    }
    const std::vector<CycleHit> &cycles() const { return cycles_; }
    /** Per-line contention, in address order (built on each call). */
    std::map<Addr, LineContention> lines() const;

    /** Lines whose waiter queue ever held @p minQueue+ cpus at once. */
    std::vector<Addr> convoyLines(unsigned minQueue = 2) const;

  private:
    /** Edge @p d.serial: the reducer numbers deferrals in open order,
     *  one edge each. */
    void addDefer(const TxnState::Deferral &d);
    void detectCycleFrom(std::int16_t waiter, std::int16_t owner,
                         Tick tick);

    std::vector<DeferEdge> edges_;
    std::vector<RestartEdge> restarts_;
    std::vector<CycleHit> cycles_;
    AddrMap<LineContention> lines_;
    /** @{ cycle-walk scratch, reused across walks */
    std::vector<std::uint32_t> seen_; ///< == seenGen_ once visited
    std::uint32_t seenGen_ = 0;
    std::vector<std::int16_t> path_;
    std::vector<size_t> cursor_; ///< next open deferral, per path node
    /** @} */
};

} // namespace tlr

#endif // TLR_EXPLAIN_GRAPH_HH
