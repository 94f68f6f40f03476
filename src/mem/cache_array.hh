/**
 * @file
 * Set-associative cache data array with LRU replacement.
 *
 * Each set's tags sit in their own array, next to each other, apart
 * from the lines: a lookup reads one host cache line per set and
 * touches a CacheLine only on a hit.
 */

#ifndef TLR_MEM_CACHE_ARRAY_HH
#define TLR_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <new>
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
    CacheLine *
    find(Addr line_addr)
    {
        const unsigned set = setIndex(line_addr);
        const Addr *tags = &tags_[static_cast<size_t>(set) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (tags[w] == line_addr)
                return &sets_[set][w];
        return nullptr;
    }

    const CacheLine *
    find(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->find(line_addr);
    }

    /**
     * Record that @p line became valid or invalid. The tag array is
     * written nowhere else, so every change of a line's validity in
     * the array must come through here; a line outside the array (a
     * victim-cache copy) is ignored.
     */
    void syncTag(const CacheLine &line);

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
        for (unsigned s = 0; s < numSets_; ++s)
            for (unsigned w = 0; w < ways_; ++w)
                if (tags_[static_cast<size_t>(s) * ways_ + w] != noTag &&
                    pred(sets_[s][w]))
                    return &sets_[s][w];
        return nullptr;
    }

  private:
    unsigned setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>((line_addr >> lineShift) &
                                     (numSets_ - 1));
    }

    /** Tag of an invalid way; no line address has it. */
    static constexpr Addr noTag = ~Addr{0};

    struct AlignedFree
    {
        void
        operator()(Addr *p) const
        {
            ::operator delete[](p, std::align_val_t{64});
        }
    };

    unsigned ways_;
    unsigned numSets_;
    /** numSets_ x ways_ tags, set-major and host-line aligned: a
     *  way's line address while it is valid, else noTag. A set with
     *  no line yet reads as all noTag. */
    std::unique_ptr<Addr[], AlignedFree> tags_;
    /** The ways of each set, allocated (all invalid) when the set first
     *  receives a line. A run touches a small share of the sets, and
     *  zero-filling every line up front was about half the host time
     *  of building a System. */
    std::vector<std::unique_ptr<CacheLine[]>> sets_;
};

} // namespace tlr

#endif // TLR_MEM_CACHE_ARRAY_HH
