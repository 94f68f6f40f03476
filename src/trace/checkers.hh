/**
 * @file
 * Online invariant checkers driven from the structured event stream.
 *
 * Each checker watches the TraceRecord stream and verifies one of the
 * paper's correctness claims *while the run executes*, panicking at
 * the violating tick (with a flight-recorder dump) instead of letting
 * the bug surface as a wrong answer at run end:
 *
 *  - SingleOwnerChecker: MOESI safety — at most one cache holds a
 *    line writable (M/E), and a writable copy excludes all others.
 *  - TimestampOrderChecker: the paper's conflict-resolution rule —
 *    a transaction never loses a conflict to a contender with a
 *    *later* timestamp (Section 2.1.2: earlier timestamp wins).
 *  - DeferralCycleChecker: deferral chains never deadlock — a cycle
 *    in the waits-for graph built from deferral decisions must be
 *    broken (by probes or the recovery timer) within a bounded window
 *    (paper Fig. 6 and Section 3.1.1).
 *  - AtomicityChecker: commit atomicity against a shadow-memory
 *    oracle — every value a transaction read must still be the
 *    globally visible value when the transaction commits (exactly
 *    the serializability obligation of paper Section 2.1.1).
 *
 * Checkers are passive listeners: they never schedule events or touch
 * simulation state, so attaching them cannot change simulated cycles.
 */

#ifndef TLR_TRACE_CHECKERS_HH
#define TLR_TRACE_CHECKERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/line.hh"
#include "sim/flat_containers.hh"
#include "sim/stats.hh"
#include "trace/sink.hh"

namespace tlr
{

/** Shared context: violation accounting + policy knobs. */
struct CheckerContext
{
    StatSet *stats = nullptr;
    TraceSink *sink = nullptr; ///< for flight-recorder dumps on panic
    bool keepGoing = false;    ///< count violations instead of panicking
    bool deferUntimestamped = true; ///< engine policy (SpecConfig)
    Tick cycleStuckTicks = 50'000;  ///< deadlock persistence bound

    /** Record a violation; panics at the violating tick unless
     *  keepGoing is set. */
    void violation(const char *checker, Tick tick, const std::string &msg);
};

/** At most one writable (M/E) copy of a line system-wide, and a
 *  writable copy excludes every other valid copy. */
class SingleOwnerChecker : public TraceListener
{
  public:
    explicit SingleOwnerChecker(CheckerContext &ctx) : ctx_(ctx) {}
    void onRecord(const TraceRecord &r) override;

  private:
    /** How many caches hold a line valid, and how many writable. */
    struct Copies
    {
        unsigned valid = 0;
        unsigned writable = 0;
    };

    void report(const TraceRecord &r, const Copies &c) const;

    CheckerContext &ctx_;
    /** Per cpu: line -> state held there (Invalid once dropped). */
    std::vector<AddrMap<CohState>> held_;
    /** line -> copy counts over every cpu. */
    AddrMap<Copies> copies_;
};

/** A conflict is never lost to a later-timestamp contender. */
class TimestampOrderChecker : public TraceListener
{
  public:
    explicit TimestampOrderChecker(CheckerContext &ctx) : ctx_(ctx) {}
    void onRecord(const TraceRecord &r) override;

  private:
    CheckerContext &ctx_;
};

/** Deferral waits-for cycles must be broken within a bounded window. */
class DeferralCycleChecker : public TraceListener
{
  public:
    explicit DeferralCycleChecker(CheckerContext &ctx) : ctx_(ctx) {}
    void onRecord(const TraceRecord &r) override;
    void finish(Tick now) override;

  private:
    struct Edge
    {
        CpuId waiter;
        CpuId holder;
        Addr line;
    };

    /** Drop every live edge matching @p pred; true if any was. */
    template <typename Pred>
    bool dropEdges(Pred pred);
    void setAdjacent(CpuId waiter, CpuId holder, bool on);
    /** Depth-first search from the lowest waiter, holders visited in
     *  ascending order; on success the cycle path is in stack_ from
     *  the index returned. */
    bool hasCycle(size_t *cycle_start);
    void edgesChanged(Tick now, bool added);
    void report(Tick now);

    CheckerContext &ctx_;
    /** Live deferrals (few: each waiter has a handful of requests
     *  outstanding), in arrival order. */
    std::vector<Edge> edges_;
    /** Waits-for adjacency: words_ 64-bit words per cpu row, bit h of
     *  row w set while w has a live deferral behind h. */
    std::vector<std::uint64_t> adj_;
    size_t cpus_ = 0; ///< rows allocated (a multiple of 64)
    size_t words_ = 0;
    size_t span_ = 0; ///< 1 + the highest cpu in any edge so far
    /** @{ search scratch, reused across searches */
    std::vector<std::uint8_t> color_; ///< 0 white, 1 on stack, 2 done
    std::vector<CpuId> stack_;
    std::vector<size_t> cursor_; ///< next holder to try, per stack entry
    /** @} */
    bool cyclePresent_ = false;
    Tick cycleSince_ = 0;
    std::vector<CpuId> cycleNodes_;
};

/** Shadow-memory oracle: transactional read sets must still be valid
 *  at commit time (commit atomicity / serializability). */
class AtomicityChecker : public TraceListener
{
  public:
    explicit AtomicityChecker(CheckerContext &ctx) : ctx_(ctx) {}
    void onRecord(const TraceRecord &r) override;

    /** Oracle introspection (tests). */
    bool hasWord(Addr addr) const { return shadow_.find(addr) != nullptr; }
    std::uint64_t word(Addr addr) const
    {
        const std::uint64_t *v = shadow_.find(addr);
        return v ? *v : 0;
    }

  private:
    /** One cpu's open transaction: each word read, with the first
     *  value read, in read order. */
    struct ReadSet
    {
        std::vector<std::pair<Addr, std::uint64_t>> words;
        /** word -> gen of the transaction that last read it. */
        AddrMap<std::uint64_t> seen;
        std::uint64_t gen = 1;
    };

    void noteRead(CpuId cpu, Addr addr, std::uint64_t value);
    void discard(CpuId cpu);

    CheckerContext &ctx_;
    AddrMap<std::uint64_t> shadow_; ///< word -> value
    std::vector<ReadSet> readSets_; ///< indexed by cpu
};

/**
 * Bundles the four checkers behind one listener and owns the shared
 * context. Violations increment StatSet counter "trace.violations"
 * (and "trace.violations.<checker>") before panicking, so tests
 * running with keepGoing can assert on counts.
 */
class InvariantRegistry : public TraceListener
{
  public:
    InvariantRegistry(StatSet &stats, TraceSink *sink,
                      const TraceParams &params,
                      bool defer_untimestamped, Tick yield_timeout);

    void onRecord(const TraceRecord &r) override;
    void finish(Tick now) override;

    std::uint64_t violations() const;
    AtomicityChecker &atomicity() { return atomicity_; }

  private:
    CheckerContext ctx_;
    SingleOwnerChecker owner_;
    TimestampOrderChecker tsOrder_;
    DeferralCycleChecker cycles_;
    AtomicityChecker atomicity_;
};

} // namespace tlr

#endif // TLR_TRACE_CHECKERS_HH
