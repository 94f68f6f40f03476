/**
 * @file
 * System interconnects.
 *
 * The paper makes no assumption about the coherence organization:
 * "the protocol may be broadcast snooping or directory-based and the
 * interconnect may be ordered or un-ordered" (Section 3). Two
 * implementations of the abstract Interconnect are provided:
 *
 *  - BroadcastInterconnect: an ordered broadcast address network plus
 *    point-to-point data network, modeled on the Sun Gigaplane
 *    split-transaction organization used in the paper (Table 2). Every
 *    controller observes every ordered transaction.
 *
 *  - DirectoryInterconnect (directory.hh): a home directory tracks the
 *    owner and sharer set per line and forwards each request only to
 *    the controllers involved; the directory is the per-line ordering
 *    point. TLR's deferral/marker/probe machinery is identical — only
 *    who observes a request changes.
 *
 * Timing shortcut shared by both: the snoop/forward decision is
 * resolved in one event at the order tick (snoop latency paid up
 * front); data, markers and probes then travel point-to-point with a
 * fixed pipelined latency.
 */

#ifndef TLR_COHERENCE_INTERCONNECT_HH
#define TLR_COHERENCE_INTERCONNECT_HH

#include <vector>

#include "coherence/messages.hh"
#include "sim/event_queue.hh"
#include "sim/flat_containers.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/sink.hh"

namespace tlr
{

class MemoryController;

/** Aggregated snoop result for one ordered transaction. */
struct SnoopReply
{
    bool sharer = false; ///< I held (or keep) a Shared copy
    bool owner = false;  ///< I am (or will be) the data supplier
};

/** Interface every L1 coherence controller implements. */
class Snooper
{
  public:
    virtual ~Snooper() = default;
    virtual CpuId id() const = 0;
    /** Observe an ordered transaction from another processor. */
    virtual SnoopReply snoop(const BusRequest &req) = 0;
    /** Observe the ordering of this processor's own transaction. */
    virtual void ownRequestOrdered(const BusRequest &req) = 0;

    /** Is this processor's copy of @p line still valid, making a
     *  pending Upgrade effective at its order point? A stale upgrade
     *  (requester invalidated while the request was in flight) must
     *  not invalidate other caches — the requester reissues as GetX. */
    virtual bool upgradeValid(Addr line) const = 0;

    /**
     * Snoop filter hook: does this controller hold ANY state for
     * @p line (valid copy, victim copy, or an outstanding MSHR)?
     * Must be conservative — returning true for a line with no state
     * only costs a wasted snoop, but returning false for a line the
     * controller tracks would skip a required snoop. snoop() on a
     * controller without line state must be a strict no-op, which is
     * what lets the broadcast bus elide the call entirely. Pure: it
     * may read cache state but not touch it.
     */
    virtual bool holdsLineState(Addr line) const { (void)line; return true; }

    virtual void dataResponse(const DataMsg &msg) = 0;
    virtual void marker(const MarkerMsg &msg) = 0;
    virtual void probe(const ProbeMsg &msg) = 0;
};

struct InterconnectParams
{
    Tick addrOccupancy = 2; ///< cycles between ordered transactions
    Tick snoopLatency = 20; ///< request issue -> global order/snoop
    Tick dataLatency = 20;  ///< point-to-point data network latency
};

/**
 * Abstract interconnect: request ordering is implementation-specific;
 * the point-to-point message plane (data, markers, probes) is shared.
 */
class Interconnect
{
  public:
    Interconnect(EventQueue &eq, StatSet &stats, InterconnectParams params);
    virtual ~Interconnect() = default;

    /** Register controllers (index == CpuId) and the memory. */
    virtual void addSnooper(Snooper *s);
    void setMemory(MemoryController *mem) { mem_ = mem; }
    void setTrace(TraceSink *sink) { trace_ = sink; }

    /** Enqueue an address transaction for ordering. */
    virtual void submit(const BusRequest &req) = 0;

    /** @{ Point-to-point messages (data network). */
    void sendData(CpuId to, const DataMsg &msg);
    void sendMarker(CpuId to, const MarkerMsg &msg);
    void sendProbe(CpuId to, const ProbeMsg &msg);
    /** @} */

    const InterconnectParams &params() const { return params_; }

  protected:
    EventQueue &eq_;
    StatSet &stats_;
    InterconnectParams params_;
    MemoryController *mem_ = nullptr;
    TraceSink *trace_ = nullptr;
    std::vector<Snooper *> snoopers_;
    std::uint64_t nextSn_ = 1;

    std::uint64_t &txnCount_;
    std::uint64_t &dataMsgs_;
    std::uint64_t &markerMsgs_;
    std::uint64_t &probeMsgs_;
};

/** The paper's configuration: Gigaplane-style ordered broadcast. */
class BroadcastInterconnect : public Interconnect
{
  public:
    using Interconnect::Interconnect;

    void addSnooper(Snooper *s) override;
    void submit(const BusRequest &req) override;

  private:
    void arbitrate();
    void deliver(BusRequest req);

    std::vector<Ring<BusRequest>> queues_; ///< per requester, FIFO
    size_t rrNext_ = 0;
    bool arbScheduled_ = false;
};

} // namespace tlr

#endif // TLR_COHERENCE_INTERCONNECT_HH
