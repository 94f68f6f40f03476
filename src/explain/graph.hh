/**
 * @file
 * Online wait-for/defer graph builder.
 *
 * Consumes the structured trace stream and materializes the paper's
 * implicit conflict structure: every deferral (paper Section 3.1)
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

#include "trace/listener_state.hh"
#include "trace/sink.hh"

namespace tlr
{

/** One deferral: @c waiter parked behind @c owner on @c line. */
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

class ConflictGraphBuilder : public TraceListener
{
  public:
    void onRecord(const TraceRecord &r) override;
    void finish(Tick now) override;

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
    /** One open deferral of a waiter: the line and its edge. */
    struct Pending
    {
        Addr line = 0;
        size_t edge = 0; ///< index into edges_
    };

    struct LineState
    {
        LineContention contention;
        unsigned waiters = 0; ///< open deferrals on the line now
    };

    void addDefer(const TraceRecord &r, bool relaxed);
    void detectCycleFrom(std::int16_t waiter, std::int16_t owner,
                         Tick tick);
    /** @p cpu's open deferrals, ascending line; empty for a cpu that
     *  never waited. */
    const std::vector<Pending> &pendingOf(std::int16_t cpu) const;

    std::vector<DeferEdge> edges_;
    std::vector<RestartEdge> restarts_;
    std::vector<CycleHit> cycles_;
    AddrMap<LineState> lines_;
    /** Per waiter cpu: its open deferrals, ascending line. */
    std::vector<std::vector<Pending>> pending_;
    /** @{ cycle-walk scratch, reused across walks */
    std::vector<std::uint32_t> seen_; ///< == seenGen_ once visited
    std::uint32_t seenGen_ = 0;
    std::vector<std::int16_t> path_;
    std::vector<size_t> cursor_; ///< next pending edge, per path node
    /** @} */
};

} // namespace tlr

#endif // TLR_EXPLAIN_GRAPH_HH
