#include "coherence/directory.hh"

#include "coherence/memory_controller.hh"
#include "sim/logging.hh"

namespace tlr
{

DirectoryInterconnect::DirectoryInterconnect(EventQueue &eq,
                                             StatSet &stats,
                                             InterconnectParams params)
    : Interconnect(eq, stats, params),
      fwdSnoops_(stats.counter("dir", "forwardedSnoops")),
      invalidations_(stats.counter("dir", "invalidations"))
{
}

void
DirectoryInterconnect::submit(const BusRequest &req)
{
    BusRequest r = req;
    r.sn = nextSn_++;
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Dir, TraceEvent::CohSubmit,
                     r.requester, r.line,
                     static_cast<std::uint64_t>(r.type), r.ts.clock,
                     packTsMeta(r.ts));
    // Request travels to the home node, then queues for the directory
    // pipeline (one ordered transaction per addrOccupancy cycles).
    eq_.scheduleIn(params_.snoopLatency,
                   [this, r] {
                       queue_.push_back(r);
                       if (!pumpScheduled_) {
                           pumpScheduled_ = true;
                           eq_.scheduleIn(0, [this] { pump(); },
                                          EventPrio::Snoop);
                       }
                   },
                   EventPrio::BusArbitration);
}

void
DirectoryInterconnect::traceFwd(const BusRequest &req, CpuId dest,
                                bool inval)
{
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Dir, TraceEvent::CohFwd,
                     req.requester, req.line,
                     static_cast<std::uint64_t>(dest),
                     static_cast<std::uint64_t>(req.type),
                     inval ? 1 : 0, req.sn);
}

void
DirectoryInterconnect::pump()
{
    if (queue_.empty()) {
        pumpScheduled_ = false;
        return;
    }
    BusRequest req = queue_.front();
    queue_.pop_front();
    ++txnCount_;
    process(req);
    eq_.scheduleIn(params_.addrOccupancy, [this] { pump(); },
                   EventPrio::Snoop);
}

void
DirectoryInterconnect::process(const BusRequest &req)
{
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Dir, TraceEvent::CohOrder,
                     req.requester, req.line,
                     static_cast<std::uint64_t>(req.type), req.sn,
                     req.ts.clock, packTsMeta(req.ts));
    Entry &e = entries_[req.line];
    auto snooper = [this](CpuId c) {
        return snoopers_.at(static_cast<size_t>(c));
    };

    switch (req.type) {
      case ReqType::WriteBack:
        // Data became architecturally visible at eviction time; the
        // directory merely stops forwarding requests to the ex-owner.
        if (e.owner == req.requester)
            e.owner = invalidCpu;
        e.sharers.erase(req.requester);
        return;

      case ReqType::Upgrade: {
        if (!snooper(req.requester)->upgradeValid(req.line)) {
            // Stale: the requester reissues as GetX (no side effects).
            snooper(req.requester)->ownRequestOrdered(req, false, false);
            return;
        }
        // Invalidate every other copy, including an Owned supplier.
        e.sharers.forEach([&](CpuId c) {
            if (c != req.requester) {
                ++invalidations_;
                traceFwd(req, c, true);
                snooper(c)->snoop(req);
            }
        });
        if (e.owner != invalidCpu && e.owner != req.requester &&
            !e.sharers.contains(e.owner)) {
            ++invalidations_;
            traceFwd(req, e.owner, true);
            snooper(e.owner)->snoop(req);
        }
        e.owner = req.requester;
        e.sharers.assign(req.requester);
        snooper(req.requester)->ownRequestOrdered(req, false, false);
        return;
      }

      case ReqType::GetS: {
        if (e.owner == req.requester)
            e.owner = invalidCpu; // it clearly lost its copy
        bool anyOwner = false;
        if (e.owner != invalidCpu) {
            ++fwdSnoops_;
            traceFwd(req, e.owner, false);
            SnoopReply r = snooper(e.owner)->snoop(req);
            anyOwner = r.owner;
            if (!anyOwner)
                e.owner = invalidCpu; // silently evicted / written back
        }
        const bool anySharer =
            anyOwner ||
            e.sharers.size() > (e.sharers.contains(req.requester) ? 1 : 0);
        e.sharers.insert(req.requester);
        snooper(req.requester)->ownRequestOrdered(req, anyOwner,
                                                  anySharer);
        if (!anyOwner) {
            if (!anySharer) {
                // The grant will be Exclusive: E is an owner state, so
                // the directory must track the requester as owner (it
                // can silently write, and later readers must be able
                // to find it).
                e.owner = req.requester;
            }
            mem_->supply(req, anySharer);
        }
        return;
      }

      case ReqType::GetX: {
        if (e.owner == req.requester)
            e.owner = invalidCpu;
        bool anyOwner = false;
        CpuId oldOwner = e.owner;
        if (oldOwner != invalidCpu) {
            ++fwdSnoops_;
            traceFwd(req, oldOwner, false);
            SnoopReply r = snooper(oldOwner)->snoop(req);
            anyOwner = r.owner;
        }
        e.sharers.forEach([&](CpuId c) {
            if (c != req.requester && c != oldOwner) {
                ++invalidations_;
                traceFwd(req, c, true);
                snooper(c)->snoop(req);
            }
        });
        // The requester is the protocol owner from this point on,
        // even though the data may flow through a deferral chain.
        e.owner = req.requester;
        e.sharers.assign(req.requester);
        snooper(req.requester)->ownRequestOrdered(req, anyOwner, false);
        if (!anyOwner) {
            mem_->supply(req, false);
        }
        return;
      }
    }
}

CpuId
DirectoryInterconnect::dirOwner(Addr line) const
{
    const Entry *e = entries_.find(lineAlign(line));
    return e ? e->owner : invalidCpu;
}

size_t
DirectoryInterconnect::dirSharers(Addr line) const
{
    const Entry *e = entries_.find(lineAlign(line));
    return e ? e->sharers.size() : 0;
}

} // namespace tlr
