/**
 * @file
 * Directory-based interconnect (paper Section 3: "the protocol may be
 * broadcast snooping or directory-based").
 *
 * A home directory tracks, per line, the owning cache and the sharer
 * set, and forwards each ordered request only to the controllers
 * involved: the owner (which may supply, defer, or chain-record the
 * request — all TLR machinery unchanged) and, for writes, the sharers
 * (invalidations). The directory is the per-line ordering point;
 * unlike the broadcast bus there is no global order across lines,
 * which exercises TLR's claim of protocol independence.
 *
 * Protocol-owner tracking matches the split-transaction model in
 * L1Controller: the requester of an ordered GetX becomes the
 * directory owner immediately, even though data may arrive much
 * later through a deferral chain.
 */

#ifndef TLR_COHERENCE_DIRECTORY_HH
#define TLR_COHERENCE_DIRECTORY_HH

#include "coherence/interconnect.hh"
#include "sim/flat_containers.hh"

namespace tlr
{

class DirectoryInterconnect : public Interconnect
{
  public:
    DirectoryInterconnect(EventQueue &eq, StatSet &stats,
                          InterconnectParams params);

    void submit(const BusRequest &req) override;

    /** Test introspection. */
    CpuId dirOwner(Addr line) const;
    size_t dirSharers(Addr line) const;

  private:
    struct Entry
    {
        CpuId owner = invalidCpu;   ///< L1 owner; invalid => memory
        CpuSet sharers;             ///< may be stale (silent evictions)
    };

    void pump();
    void process(const BusRequest &req);
    /** Trace a directory-forwarded snoop/invalidation toward @p dest
     *  (metrics: per-link accounting of directory fan-out traffic). */
    void traceFwd(const BusRequest &req, CpuId dest, bool inval);

    AddrMap<Entry> entries_; ///< by line; process() inserts no other line
    Ring<BusRequest> queue_;
    bool pumpScheduled_ = false;

    std::uint64_t &fwdSnoops_;
    std::uint64_t &invalidations_;
};

} // namespace tlr

#endif // TLR_COHERENCE_DIRECTORY_HH
