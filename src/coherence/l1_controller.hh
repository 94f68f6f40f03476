/**
 * @file
 * Private L1 cache + coherence controller with TLR support.
 *
 * Implements the MOESI broadcast snooping protocol over the
 * split-transaction interconnect, plus the paper's deferral-based TLR
 * machinery (Section 3): a deferred-request queue, marker messages to
 * make pending owners aware of their upstream neighbor, and probe
 * forwarding to break cyclic waits across ownership chains.
 *
 * Protocol-ownership model: when a GetX is ordered on the address
 * network its requester becomes the *protocol owner* of the line even
 * though data may arrive arbitrarily later; subsequent requests for
 * the line are recorded at that pending owner. This reproduces the
 * request/response decoupling that creates the paper's Figure 6
 * deadlock scenario, which markers + probes then resolve.
 */

#ifndef TLR_COHERENCE_L1_CONTROLLER_HH
#define TLR_COHERENCE_L1_CONTROLLER_HH

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "coherence/interconnect.hh"
#include "coherence/memory_controller.hh"
#include "coherence/messages.hh"
#include "coherence/spec_hooks.hh"
#include "mem/cache_array.hh"
#include "mem/victim_cache.hh"
#include "mem/write_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/flat_containers.hh"
#include "sim/stats.hh"
#include "trace/sink.hh"

namespace tlr
{

struct L1Params
{
    std::uint64_t sizeBytes = 128 * 1024; ///< paper Table 2
    unsigned ways = 4;
    unsigned victimEntries = 16;          ///< paper Section 4 example
    Tick hitLatency = 1;

    /** Deadlock-recovery window. While a transaction both waits for a
     *  block and holds off a higher-priority contender, a potential
     *  cyclic wait exists; if the situation persists this long, the
     *  transaction yields (timestamp order is enforced). Waiting this
     *  long first lets order-consistent hardware queues drain without
     *  spurious restarts — a cycle is the only thing that cannot
     *  drain. Strict-timestamp mode enforces order immediately
     *  instead. */
    Tick yieldTimeout = 1000;
};

class L1Controller : public Snooper
{
  public:
    L1Controller(EventQueue &eq, StatSet &stats, CpuId id, L1Params params,
                 Interconnect &net, MemoryController &mem, SpecHooks &hooks);

    void setTrace(TraceSink *sink) { trace_ = sink; }

    /** @{ Engine-facing request interface. */
    void access(const CacheOp &op);

    /** Atomically commit buffered speculative stores into the cache,
     *  clear access bits and service the deferred queue (paper Fig. 3
     *  step 4). Pre-condition: outstandingSpecMisses() == 0 and every
     *  buffered line is writable in the local hierarchy. */
    void commitTransaction(const WriteBuffer &wb);

    /** Discard transactional marking and service the deferred queue
     *  with the (still pre-transactional) cache contents. */
    void abortTransaction();

    unsigned outstandingSpecMisses() const;

    /** Any deferred request with priority over @p ts? Used before
     *  issuing a new transactional miss: acquiring another block while
     *  holding off a higher-priority contender risks deadlock, so the
     *  engine must abort first (paper Section 3.2). */
    bool deferredHasEarlierThan(const Timestamp &ts) const;

    bool linkValid(Addr addr) const;

    /** Add a resident line to the transactional read set. Used for the
     *  elided lock itself: a real write to the lock by another thread
     *  must abort every elided execution (paper Section 2.2). */
    void markTransactionalRead(Addr addr);

    /** Add a resident writable line to the transactional write set
     *  (speculative atomic read-modify-writes). */
    void markTransactionalWrite(Addr addr);
    /** @} */

    /** @{ Snooper interface (called by the interconnect). */
    CpuId id() const override { return id_; }
    bool upgradeValid(Addr line) const override;
    bool holdsLineState(Addr line) const override;
    SnoopReply snoop(const BusRequest &req) override;
    void ownRequestOrdered(const BusRequest &req) override;
    void dataResponse(const DataMsg &msg) override;
    void marker(const MarkerMsg &msg) override;
    void probe(const ProbeMsg &msg) override;
    /** @} */

    /** Test/debug introspection. */
    CohState lineState(Addr addr) const;
    /** Human-readable dump of MSHRs and the deferred queue. */
    std::string debugState() const;
    size_t deferredCount() const { return deferred_.size(); }
    /** Total deferral backlog: the deferred queue plus chain waiters
     *  marked deferred in MSHRs (metrics counter-track sampling). */
    std::uint64_t deferredDepth() const;
    std::uint64_t peekWord(Addr addr) const;
    /** Pure lookup of a resident line (array, then victim cache)
     *  without lazy promotion; @p in_victim reports where it sits. */
    const CacheLine *peekLine(Addr addr, bool *in_victim = nullptr) const;
    /** Entries in the transaction footprint lists (unit tests). */
    size_t txnLineCount() const { return txnLines_.size(); }
    size_t pinnedLineCount() const { return pinnedLines_.size(); }

  private:
    struct Waiter
    {
        CpuId cpu = invalidCpu;
        ReqType type = ReqType::GetS;
        Timestamp ts;
        bool deferred = false; ///< hold until commit (TLR win)
    };

    struct Mshr
    {
        ReqType type = ReqType::GetS;
        Addr line = 0;
        bool ordered = false;
        bool spec = false;
        bool invalidateOnArrival = false; ///< GetS overtaken by a write
        bool downgradeToShared = false;   ///< concurrent reader exists
        bool loseOnArrival = false;       ///< forward data, self aborted
        std::optional<CacheOp> op;        ///< op that triggered the miss
        std::optional<CacheOp> queuedOp;  ///< op re-issued post-restart
        /** Requests recorded at this pending owner: at most one per
         *  other cpu, so an 8-cpu machine's fit inline. Past that the
         *  storage moves to the heap and stays with the slot. */
        InlineVec<Waiter, 7> waiters;
        bool ownershipPassed = false;     ///< a GetX waiter was recorded
        CpuId markerFrom = invalidCpu;    ///< upstream chain neighbor
        std::optional<Timestamp> pendingProbe;
        bool isExclusive() const
        {
            return type == ReqType::GetX || type == ReqType::Upgrade;
        }
        /** Still carries an op of the running transaction. A queued
         *  re-issue on an orphaned miss counts: the transaction cannot
         *  finish until the line fills. */
        bool holdsSpecOp() const
        {
            return (op && op->spec) || (queuedOp && queuedOp->spec);
        }
    };

    /**
     * The outstanding misses, one per line. Slots come from a pool of
     * fixed chunks and never move, so a Mshr & stays valid across
     * inserts, and a released slot (with its waiter storage) serves
     * the next miss. Iteration follows an index sorted by line: probe
     * send order and the line a yield reports depend on ascending
     * line order. A controller has a few misses open at a time, so
     * lookup scans that index.
     */
    class MshrTable
    {
      public:
        Mshr *
        find(Addr line) const
        {
            for (Mshr *m : byLine_) {
                if (m->line >= line)
                    return m->line == line ? m : nullptr;
            }
            return nullptr;
        }

        /** A fresh MSHR for @p line, which has none. */
        Mshr &insert(Addr line);

        /** Take @p m out of the index: find() and iteration no longer
         *  see it, but it stays readable until release(). */
        void unlink(const Mshr &m);
        void release(Mshr &m) { free_.push_back(&m); }

        auto begin() const { return byLine_.begin(); }
        auto end() const { return byLine_.end(); }

      private:
        static constexpr size_t chunkSlots = 8;
        std::vector<std::unique_ptr<Mshr[]>> chunks_;
        std::vector<Mshr *> free_;
        std::vector<Mshr *> byLine_; ///< linked slots, ascending line
    };

    struct DeferredReq
    {
        Addr line = 0;
        CpuId cpu = invalidCpu;
        ReqType type = ReqType::GetS;
        Timestamp ts;
    };

    /** @{ internal helpers */
    CacheLine *findLine(Addr line_addr);
    const CacheLine *findLineConst(Addr line_addr) const;
    CacheLine *installLine(Addr line_addr, const LineData &data,
                           CohState state);
    bool evictLine(CacheLine &line);
    /** Give a line away; unlike evictLine(), no write-back. */
    void dropLine(CacheLine &line);
    void respond(const CacheOp &op, std::uint64_t value);
    /** Carry out @p op on @p line: every op kind, on a hit and on a
     *  fill. A null @p line means the fill is not cached: @p data is
     *  used once. */
    void perform(const CacheOp &op, CacheLine *line, const LineData &data);
    void reissueQueued(const Mshr &m);
    void missIssue(const CacheOp &op, ReqType type);
    bool yieldBeforeWaiting(Addr line_addr, bool spec);
    /** Visit each chain waiter we hold off that outranks @p mine,
     *  behind a miss of the running transaction, until @p fn returns
     *  true; return whether it did. */
    template <class Fn>
    bool anyHeldOff(const Timestamp &mine, Fn &&fn) const;
    bool hasEarlierContender(Addr *line_out = nullptr) const;
    bool detectTwoCycle(Addr *line_out = nullptr) const;
    void forwardContenderProbes();
    /** Pass a contender's priority up the chain: to the upstream
     *  neighbor if a marker named it, else keep the earliest until one
     *  does (paper Section 3.1.1). */
    void forwardProbe(Mshr &m, const Timestamp &ts);
    /** Remember the earliest probe that outranks us on @p line_addr
     *  for the deadlock-recovery timer, and arm it if we wait. */
    void keepProbeHint(Addr line_addr, const Timestamp &ts);
    void maybeArmYield();
    void yieldFire(std::uint64_t gen);
    /** Count a deferral of @p req, already queued, and trace it with
     *  the new backlog depth. */
    void recordDefer(Addr line_addr, const BusRequest &req, bool relaxed);
    void traceLose(Addr line_addr, const Timestamp &winner);
    void handleChainSnoop(Mshr &mshr, const BusRequest &req);
    void handleOwnerSnoop(CacheLine &line, const BusRequest &req,
                          SnoopReply &reply);
    /** Send @p line's data to @p to: a GetS downgrades our copy
     *  (M to O, E to S), anything else takes the line. */
    void grant(CacheLine &line, CpuId to, ReqType type);
    void serviceWaiter(const Waiter &w, Addr line_addr,
                       ServiceCause cause = ServiceCause::Chain);
    /** Shared tail of commit and abort: clear the footprint's access
     *  bits, service the deferred queue, then unpin. */
    void endTransaction(bool at_commit);
    bool deferredExclusive(Addr line_addr) const;
    void clearLinkIf(Addr line_addr);
    bool conflicts(const BusRequest &req, bool read_set,
                   bool write_set) const;
    bool winsConflict(const Timestamp &incoming) const;
    void markRead(CacheLine &line);
    void markWrite(CacheLine &line);
    void pin(CacheLine &line);
    template <class Fn> void forEachCopy(Addr line_addr, Fn &&fn);
    void checkBoundaryClear() const;
    /** @} */

    EventQueue &eq_;
    StatSet &stats_;
    const CpuId id_;
    L1Params params_;
    Interconnect &net_;
    MemoryController &mem_;
    SpecHooks &hooks_;
    TraceSink *trace_ = nullptr;

    CacheArray array_;
    VictimCache victim_;
    MshrTable mshrs_;
    Ring<DeferredReq> deferred_;

    /** Transaction footprint: the address of every line whose access
     *  bits went from clear to set (txnLines_) or that a deferral
     *  pinned (pinnedLines_) since the last commit or abort. The
     *  boundary clears exactly these lines, so it costs O(lines
     *  touched) instead of a walk over the whole L1 (DESIGN.md §8).
     *  Addresses, not pointers: lines move between the array and the
     *  victim cache by copy. */
    std::vector<Addr> txnLines_;
    std::vector<Addr> pinnedLines_;

    /** Earliest probe timestamp seen per held line. A probe that is
     *  relax-ignored (we were single-block at the time) must not lose
     *  its priority information: if this transaction later waits for
     *  anything, the remembered contender wins (paper Section 3.2:
     *  "the timestamp order must be enforced" once another block is
     *  accessed). Cleared when the deferred queue drains. Sorted by
     *  line: hasEarlierContender() reports the lowest hinted line. */
    std::vector<std::pair<Addr, Timestamp>> probeHints_;

    bool linkValid_ = false;
    Addr linkLine_ = 0;
    Addr linkAddr_ = 0;

    /** Deadlock-recovery timer state (see L1Params::yieldTimeout). */
    bool yieldArmed_ = false;
    std::uint64_t yieldGen_ = 0;

    /** @{ stats */
    std::uint64_t &hits_;
    std::uint64_t &misses_;
    std::uint64_t &upgrades_;
    std::uint64_t &defers_;
    std::uint64_t &relaxedDefers_;
    std::uint64_t &probesSent_;
    std::uint64_t &writeBacksInit_;
    std::uint64_t &victimInserts_;
    /** @} */
};

} // namespace tlr

#endif // TLR_COHERENCE_L1_CONTROLLER_HH
