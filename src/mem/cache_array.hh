/**
 * @file
 * Set-associative cache data array with LRU replacement.
 */

#ifndef TLR_MEM_CACHE_ARRAY_HH
#define TLR_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/line.hh"
#include "sim/types.hh"

namespace tlr
{

class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     */
    CacheArray(std::uint64_t size_bytes, unsigned ways);

    /** Find a valid line; nullptr on miss. Does not touch LRU. */
    CacheLine *find(Addr line_addr);
    const CacheLine *find(Addr line_addr) const;

    /** Update LRU on access. */
    void touch(CacheLine &line, std::uint64_t use_tick)
    {
        line.lastUse = use_tick;
    }

    /**
     * Pick a slot for @p line_addr. Prefers an invalid way, else the
     * LRU non-pinned way. Returns nullptr when every way is pinned
     * (caller treats as a structural/resource condition).
     * The returned slot may still hold a valid victim line; the caller
     * must handle the eviction before overwriting.
     */
    CacheLine *allocateSlot(Addr line_addr);

    unsigned numSets() const { return numSets_; }
    unsigned numWays() const { return ways_; }

    /** First valid line satisfying @p pred, or nullptr. Walks every
     *  set: O(capacity), for debug-build checks only. */
    template <class Pred>
    const CacheLine *
    firstValid(Pred &&pred) const
    {
        for (const auto &set : sets_)
            for (unsigned w = 0; set && w < ways_; ++w)
                if (isValidState(set[w].state) && pred(set[w]))
                    return &set[w];
        return nullptr;
    }

  private:
    unsigned setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>((line_addr >> lineShift) &
                                     (numSets_ - 1));
    }

    unsigned ways_;
    unsigned numSets_;
    /** The ways of each set, allocated (all invalid) when the set first
     *  receives a line. A run touches a small share of the sets, and
     *  zero-filling every line up front was about half the host time
     *  of building a System. */
    std::vector<std::unique_ptr<CacheLine[]>> sets_;
};

} // namespace tlr

#endif // TLR_MEM_CACHE_ARRAY_HH
