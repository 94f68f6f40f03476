/**
 * @file
 * Simulation-time metrics layer (paper Figs. 8-11, Table 2 support).
 *
 * The scalar StatSet can reproduce means but not tails, and it cannot
 * say *which lock* or *which link* is hot. The MetricsCollector is a
 * TraceListener: it consumes the same structured event stream the
 * invariant checkers and the lifecycle exporter use, and condenses it
 * into a MetricsSnapshot:
 *
 *  - log-bucketed latency histograms (critical-section latency, commit
 *    and abort outcome latencies, retry counts, deferral wait cycles,
 *    deferral-queue depth), each reporting p50/p90/p99/max;
 *  - a per-lock contention profile (acquires, elisions, commits,
 *    restarts, fallbacks, deferrals, exclusive-owner occupancy),
 *    surfaced as a ranked "hottest locks" table;
 *  - interconnect/directory accounting: message counts and bytes per
 *    message type and per (from, to) link, including marker/probe
 *    traffic and directory-forwarded snoops.
 *
 * Zero-overhead-off contract: the collector is only ever attached as a
 * sink listener, so with metrics disabled the sink stays disarmed and
 * components skip every emit behind TLR_TRACE_ARMED — no cycles or
 * counters change. Even when attached it never mutates simulation
 * state, so enabling metrics cannot change simulated cycle counts.
 * Instance and deferral latencies come from what the TxnState reducer
 * closes; the collector keeps only its own tables.
 *
 * Snapshots merge: MetricsSnapshot::merge() is commutative and
 * associative (element-wise histogram adds plus keyed-map sums), so
 * parallel sweep shards (harness/sweep.hh) combine into byte-identical
 * JSON regardless of merge order.
 */

#ifndef TLR_METRICS_COLLECTOR_HH
#define TLR_METRICS_COLLECTOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics/histogram.hh"
#include "sim/flat_containers.hh"
#include "trace/txn_state.hh"

namespace tlr
{

/** Per-lock contention counters, keyed by lock address. */
struct LockProfile
{
    std::uint64_t acquires = 0;  ///< real (non-elided) acquisitions
    std::uint64_t elisions = 0;  ///< new elided instances
    std::uint64_t commits = 0;
    std::uint64_t restarts = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t defers = 0;    ///< requests deferred on the lock line
                                 ///< or on data held under this lock
    std::uint64_t occupancyTicks = 0; ///< held/elided-exclusive time

    void merge(const LockProfile &o);
    /** Ranking key for the hottest-locks table. */
    std::uint64_t contention() const
    {
        return restarts + fallbacks + defers;
    }
};

/** Interconnect message classes accounted separately. */
enum class MsgClass : unsigned
{
    AddrGetS,
    AddrGetX,
    AddrUpgrade,
    AddrWriteBack,
    Data,
    Marker,
    Probe,
    DirFwd, ///< directory-forwarded snoop/invalidation
};
constexpr unsigned numMsgClasses = 8;
const char *msgClassName(MsgClass c);

struct MsgStat
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

/** Pseudo-node ids for link accounting (>= 0 are cpus). */
constexpr int memNode = -1; ///< memory controller
constexpr int ordNode = -2; ///< ordering point (bus / directory)
std::string linkNodeName(int node);

/** Everything the metrics layer measured in one run (or the merge of
 *  several shards of a sweep). */
struct MetricsSnapshot
{
    Histogram csLatency;     ///< critical-section entry -> outcome
    Histogram commitLatency; ///< commit start -> commit done
    Histogram abortLatency;  ///< instance begin -> fallback/quantum end
    Histogram retries;       ///< restarts per finished instance
    Histogram deferWait;     ///< request deferred -> serviced
    Histogram deferDepth;    ///< deferral backlog per change

    std::map<Addr, LockProfile> locks;
    std::array<MsgStat, numMsgClasses> msgs{};
    std::map<std::pair<int, int>, MsgStat> links; ///< (from, to)

    std::uint64_t records = 0;  ///< trace records consumed
    std::uint64_t runTicks = 0; ///< summed run lengths (occupancy base)

    /** Commutative/associative accumulate (byte-identical json() for
     *  any merge order — tests/test_metrics.cc). */
    void merge(const MetricsSnapshot &o);

    /** @{ abort digest, derived from the lock map (metrics schema v3
     *  exposes these as the "aborts" section). */
    std::uint64_t totalCommits() const;
    std::uint64_t totalRestarts() const;
    /** restarts / (commits + restarts); 0 when idle. */
    double abortRate() const;
    /** Highest-contention() lock and its contention; {0, 0} when no
     *  lock ever contended. */
    std::pair<Addr, std::uint64_t> hottestLock() const;
    /** @} */

    /** One JSON object (histograms + locks + interconnect), embedded
     *  as the "metrics" section of a versioned stats dump. */
    std::string json() const;

    /** Human-readable tables: histogram percentiles, the hottest
     *  @p maxLocks locks, per-message-type byte counts. */
    std::string summary(size_t maxLocks = 8) const;
};

class MetricsCollector : public TxnStateView
{
  public:
    /** Lock addresses (sync/layout classifier) for attribution of
     *  MemWrite acquire/release heuristics and defer ownership. */
    void setLockClassifier(std::function<bool(Addr)> f)
    {
        isLock_ = std::move(f);
    }

    void apply(const TxnState::Change &c) override;
    /** Fills the snapshot's lock and link maps from the flat
     *  per-record tables. */
    void finish(Tick now) override;

    /** Everything measured; complete once finish() has run (the sink
     *  calls it at end of run). */
    const MetricsSnapshot &snapshot() const { return snap_; }

  private:
    /** A real (non-elided) hold of a lock word. */
    struct Hold
    {
        bool held = false;
        Tick since = 0;
    };

    /** Latencies and lock counts of an instance the reducer closed. */
    void closed(const TxnState::Txn &t);
    void accountMsg(MsgClass cls, std::uint64_t bytes, int from, int to);

    MetricsSnapshot snap_;
    AddrMap<LockProfile> locks_;
    /** Per-link totals: linkDim_ x linkDim_, row from+2, column to+2
     *  (node ids start at ordNode = -2). */
    std::vector<MsgStat> links_;
    size_t linkDim_ = 0;
    AddrMap<Hold> held_; ///< lock word -> real hold
    std::function<bool(Addr)> isLock_;
};

} // namespace tlr

#endif // TLR_METRICS_COLLECTOR_HH
