/**
 * @file
 * Memory-side controller: shared L2 + DRAM behind the snooping L1s.
 *
 * Supplies data for ordered transactions with no L1 owner and absorbs
 * writebacks. Writeback data becomes architecturally visible at
 * eviction time (the bus transaction models timing only), which keeps
 * the "no owner => memory is current" invariant trivially true.
 */

#ifndef TLR_COHERENCE_MEMORY_CONTROLLER_HH
#define TLR_COHERENCE_MEMORY_CONTROLLER_HH

#include "coherence/interconnect.hh"
#include "coherence/messages.hh"
#include "mem/backing_store.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tlr
{

struct MemParams
{
    Tick l2Latency = 12;  ///< shared L2 access (paper Table 2)
    Tick memLatency = 70; ///< additional DRAM latency on L2 miss
};

class MemoryController
{
  public:
    MemoryController(EventQueue &eq, StatSet &stats, Interconnect &net,
                     BackingStore &store, MemParams params);

    /** Called by the bus for an ordered GetS/GetX with no L1 owner. */
    void supply(const BusRequest &req, bool any_sharer);

    /** Functional writeback (called at eviction time by an L1). */
    void writeBack(Addr line_addr, const LineData &data);

    BackingStore &store() { return store_; }

  private:
    EventQueue &eq_;
    Interconnect &net_;
    BackingStore &store_;
    MemParams params_;
    std::uint64_t &supplies_;
    std::uint64_t &writeBacks_;
    std::uint64_t &l2Hits_;
    std::uint64_t &l2Misses_;
};

} // namespace tlr

#endif // TLR_COHERENCE_MEMORY_CONTROLLER_HH
