/**
 * @file
 * Address-space layout helper for workloads.
 *
 * Bump allocator over the simulated physical address space with
 * line-granularity padding (the paper pads shared structures to
 * eliminate false sharing, Section 5.2), plus a registry of lock
 * addresses used for the execution-time breakdown of Figure 11.
 */

#ifndef TLR_SYNC_LAYOUT_HH
#define TLR_SYNC_LAYOUT_HH

#include <functional>
#include <memory>

#include "sim/flat_containers.hh"
#include "sim/types.hh"

namespace tlr
{

class Layout
{
  public:
    explicit Layout(Addr base = 0x10000) : next_(base) {}

    /** Allocate @p bytes with @p align alignment (default one word). */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 8);

    /** Allocate a whole cache line (avoids false sharing). */
    Addr allocLine();

    /** Allocate @p lines consecutive cache lines. */
    Addr allocLines(unsigned lines);

    /** Allocate a line-padded lock word and register it. */
    Addr allocLock();

    /** Register an additional synchronization word (e.g., MCS queue
     *  node flags) so its stall time counts as lock overhead. */
    void registerSyncAddr(Addr addr);

    bool isLockAddr(Addr addr) const
    {
        return lockLines_->contains(lineAlign(addr));
    }

    /** Classifier suitable for Core::setLockClassifier: a snapshot of
     *  the lock lines registered so far. Every copy of it shares one
     *  table. */
    std::function<bool(Addr)> classifier() const;

  private:
    void addLockLine(Addr line);

    Addr next_;
    /** Shared with the classifiers handed out; a registration after
     *  one was handed out copies the table first. */
    std::shared_ptr<FlatSet<Addr>> lockLines_ =
        std::make_shared<FlatSet<Addr>>();
};

} // namespace tlr

#endif // TLR_SYNC_LAYOUT_HH
