/**
 * @file
 * Epoch-sliced telemetry: time-resolved counters and online pathology
 * detection (DESIGN.md §13).
 *
 * Every metric the simulator records elsewhere is an end-of-run
 * aggregate, but the paper's interesting behaviors — restart storms
 * (Figure 2), convoy formation, starvation onset — are transient: they
 * appear and dissolve within a run and average away in whole-run
 * means. The EpochTimeline consumes the structured trace stream and
 * slices it into fixed-length epochs of `--timeline-epoch=N` simulated
 * cycles, each epoch carrying the deltas of the event counts the
 * StatSet accumulates over the whole run (commits, restarts,
 * fallbacks, deferrals, services, ordered requests) plus key
 * distribution figures (completed defer-wait spans, deferral-queue
 * depth, the per-line waiter-queue high-water mark).
 *
 * On top of the epoch stream four online detectors flag phase changes
 * as TimelineAlert records, each carrying the epoch, the hottest line
 * and a causal chain walked over the live deferrals of the TxnState
 * reducer this timeline is a view of:
 *
 *   restart-storm       restart count spikes vs the trailing-window
 *                       mean (edge-triggered at storm onset)
 *   convoy              one line's simultaneous-waiter queue reaches
 *                       convoyMinQueue (per line, re-armed when the
 *                       queue drains below the threshold)
 *   starvation          an open deferral's age crosses a threshold
 *                       derived from the p99 of completed waits
 *   throughput-collapse commit rate drops below 1/collapseFactor of
 *                       the trailing mean while conflicts continue
 *
 * Offline reconstruction: the timeline is a pure TraceListener on the
 * sink, so replaying a --trace-raw file through a fresh EpochTimeline
 * feeds it the exact online stream, and csv() matches byte-for-byte.
 *
 * Zero-overhead-off: the timeline only exists when
 * MachineParams::timelineEpoch > 0; otherwise nothing is attached, the
 * sink stays disarmed and simulated cycles are untouched either way.
 */

#ifndef TLR_TIMELINE_TIMELINE_HH
#define TLR_TIMELINE_TIMELINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/histogram.hh"
#include "sim/flat_containers.hh"
#include "trace/txn_state.hh"

namespace tlr
{

/** Deltas of one epoch [epoch*len, (epoch+1)*len). All integer, so
 *  CSV/JSON rendering is exact and byte-stable. */
struct EpochRow
{
    std::uint64_t epoch = 0;
    Tick startTick = 0;
    std::uint64_t records = 0;     ///< trace records in the epoch
    std::uint64_t commits = 0;     ///< TxnCommit
    std::uint64_t restarts = 0;    ///< TxnRestart
    std::uint64_t fallbacks = 0;   ///< TxnRestart with instance end
    std::uint64_t elisions = 0;    ///< new elided instances
    std::uint64_t quantumEnds = 0; ///< TxnQuantumEnd
    std::uint64_t defers = 0;      ///< CohDefer + CohRelaxedDefer
    std::uint64_t services = 0;    ///< CohService
    std::uint64_t orders = 0;      ///< CohOrder (throughput proxy)
    std::uint64_t deferWaitSum = 0;   ///< waits completed this epoch
    std::uint64_t deferWaitCount = 0;
    std::uint64_t deferWaitMax = 0;
    std::uint64_t maxDeferDepth = 0;  ///< max CohDeferDepth backlog
    std::uint64_t maxQueue = 0;    ///< max simultaneous waiters, any line
    Addr hotLine = 0;              ///< most defers+restarts this epoch
    std::uint64_t hotScore = 0;    ///< its defers+restarts count
};

/** One detector firing. Versioned via timelineSchemaVersion
 *  (sim/build_info.hh): any layout change bumps that constant. */
struct TimelineAlert
{
    std::string kind; ///< restart-storm | convoy | starvation |
                      ///< throughput-collapse
    std::uint64_t epoch = 0;
    Addr line = 0;    ///< hottest line / lock the alert is about
    std::uint64_t value = 0;     ///< the measurement that fired
    std::uint64_t threshold = 0; ///< the bound it crossed
    std::string chain; ///< causal wait chain at fire time ("" = none)
};

class EpochTimeline : public TxnStateView
{
  public:
    /** @{ detector constants (referenced by DESIGN.md §13 and the
     *  tests; integer math so the decisions are exact). */
    static constexpr unsigned trailingWindow = 8;  ///< epochs of history
    static constexpr std::uint64_t stormFactor = 4;
    static constexpr std::uint64_t stormMinRestarts = 16;
    static constexpr std::uint64_t convoyMinQueue = 3;
    static constexpr std::uint64_t collapseFactor = 4;
    static constexpr std::uint64_t collapseMinCommits = 8;
    static constexpr double starvationPercentile = 99.0;
    static constexpr std::uint64_t starvationFactor = 8;
    static constexpr unsigned maxChainHops = 8;
    /** @} */

    explicit EpochTimeline(Tick epoch_len);

    Tick epochLen() const { return len_; }

    /** Closes the epochs @p r has moved past, then steps the
     *  reducer. */
    void onRecord(const TraceRecord &r) override;
    void apply(const TxnState::Change &c) override;
    void finish(Tick now) override;

    const std::vector<EpochRow> &epochs() const { return rows_; }
    const std::vector<TimelineAlert> &alerts() const { return alerts_; }
    Tick finalTick() const { return finalTick_; }

    /** Called after each epoch closes, with the closed row and the
     *  number of alerts so far (tlrsim --progress). Never called from
     *  finish(), so a progress line cannot trail the final report. */
    void setEpochCallback(
        std::function<void(const EpochRow &, std::uint64_t)> cb)
    {
        onEpoch_ = std::move(cb);
    }

    /** The canonical timeline artifact: a '#'-headed CSV of every
     *  epoch row followed by the alert stream. Byte-identical between
     *  online recording and offline reconstruction (the acceptance
     *  artifact). */
    std::string csv() const;

    /** The versioned "timeline" JSON section value spliced into
     *  --stats-json dumps (StatSet::dumpJson extra_sections). */
    std::string json() const;

    /** Human-readable digest: epoch grid summary plus one line per
     *  alert (tlrsim stdout, bench TLR_TIMELINE reports). */
    std::string report() const;

  private:
    struct LineState
    {
        std::uint64_t score = 0;    ///< defers + restarts this epoch
        std::uint64_t queueMax = 0; ///< waiter high-water mark this epoch
        bool hasQueueMax = false;   ///< queueMax was set this epoch
        bool convoy = false;        ///< convoy alert armed-off (fired)
        std::uint64_t touched = 0;  ///< cur_ + 1 once in epochLines_
    };

    /** @p line's state, listed in epochLines_ on first use this epoch. */
    LineState &touch(Addr line);
    void closeEpoch();
    void runDetectors(const EpochRow &row, Tick boundary);
    void fire(const std::string &kind, Addr line, std::uint64_t value,
              std::uint64_t threshold, Tick boundary);
    /** Longest-waiting open deferral chain starting at @p line:
     *  "cpu3 waits on cpu1 (line 0x80, 120t) -> cpu1 waits on ...". */
    std::string chainFrom(Addr line, Tick at) const;

    Tick len_;
    std::uint64_t cur_ = 0; ///< index of the accumulating epoch
    EpochRow acc_;          ///< the accumulating epoch row
    Tick finalTick_ = 0;
    bool finished_ = false;

    std::vector<EpochRow> rows_;
    std::vector<TimelineAlert> alerts_;

    AddrMap<LineState> lines_;
    /** Lines with a score or queue mark this epoch, each once. */
    std::vector<Addr> epochLines_;
    /** Lines whose convoy alert has fired and not re-armed. */
    std::vector<Addr> convoyLines_;
    /** Cumulative completed-wait distribution (starvation threshold). */
    Histogram waitHist_;

    /** Trailing per-epoch history, most recent last (detectors). */
    std::vector<std::uint64_t> histRestarts_;
    std::vector<std::uint64_t> histCommits_;

    /** Edge-trigger state. */
    bool stormActive_ = false;
    bool collapseActive_ = false;
    /** (line << 16 | waiter) pairs already reported as starving. */
    AddrMap<bool> starvedAlerted_;

    std::function<void(const EpochRow &, std::uint64_t)> onEpoch_;
};

} // namespace tlr

#endif // TLR_TIMELINE_TIMELINE_HH
