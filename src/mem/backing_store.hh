/**
 * @file
 * Functional backing store behind the L1s (shared L2 + DRAM).
 *
 * Holds the authoritative copy of every line that no L1 currently
 * owns. Timing (L2 hit latency vs DRAM latency) is modeled by the
 * MemoryController in the coherence module; this class is purely
 * functional plus an L2 presence filter used for latency selection.
 */

#ifndef TLR_MEM_BACKING_STORE_HH
#define TLR_MEM_BACKING_STORE_HH

#include <cstdint>
#include <unordered_map>

#include "mem/line.hh"
#include "sim/flat_containers.hh"
#include "sim/types.hh"

namespace tlr
{

class BackingStore
{
  public:
    /** @param l2_capacity_lines L2 size in lines; 0 disables the L2
     *  presence filter (everything costs DRAM latency). */
    explicit BackingStore(std::uint64_t l2_capacity_lines)
        : l2Capacity_(l2_capacity_lines)
    {}

    /** Read a full line (zero-filled if never written). */
    LineData readLine(Addr line_addr) const;

    /** Overwrite a full line. */
    void writeLine(Addr line_addr, const LineData &data);

    /** Functional word access (loader / test support). */
    std::uint64_t readWord(Addr addr) const;
    void writeWord(Addr addr, std::uint64_t value);

    /**
     * Record an access for L2 occupancy and report whether it hit.
     * FIFO-ish filter: once capacity is exceeded the set is cleared,
     * modeling cold refill without tracking full LRU (the L2 is 4 MB,
     * far larger than any workload here, so this almost never fires).
     */
    bool accessL2(Addr line_addr);

  private:
    std::uint64_t l2Capacity_;
    std::unordered_map<Addr, LineData> lines_;
    FlatSet<Addr> l2Present_;
};

} // namespace tlr

#endif // TLR_MEM_BACKING_STORE_HH
