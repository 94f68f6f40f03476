/**
 * @file
 * Victim cache for conflict-evicted transactional lines.
 *
 * The paper (Sections 3.3 and 4) extends a small fully-associative
 * victim cache with a speculative-access bit so that set-conflict
 * evictions do not abort transactions: a transaction touching up to
 * (ways + victim entries) lines that map to one set is still
 * guaranteed a lock-free execution. We dedicate the victim cache to
 * transactional lines; clean/non-transactional victims go straight
 * back to memory, which does not change any guarantee the paper makes.
 */

#ifndef TLR_MEM_VICTIM_CACHE_HH
#define TLR_MEM_VICTIM_CACHE_HH

#include <cstddef>
#include <vector>

#include "mem/line.hh"
#include "sim/types.hh"

namespace tlr
{

class VictimCache
{
  public:
    explicit VictimCache(unsigned entries) : capacity_(entries) {}

    CacheLine *find(Addr line_addr);
    /** Pure lookup (no LRU or promotion side effects); safe from
     *  const contexts like the interconnect's snoop filter. */
    const CacheLine *find(Addr line_addr) const;

    /** Insert (copy) @p line. @return false when full (resource
     *  violation => the caller must fall back to lock acquisition). */
    bool insert(const CacheLine &line);

    /** Remove a line (after swapping it back into the main array). */
    void erase(Addr line_addr);

    size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    const std::vector<CacheLine> &entries() const { return entries_; }

  private:
    unsigned capacity_;
    std::vector<CacheLine> entries_;
};

} // namespace tlr

#endif // TLR_MEM_VICTIM_CACHE_HH
