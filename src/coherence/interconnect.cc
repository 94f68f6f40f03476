#include "coherence/interconnect.hh"

#include "coherence/memory_controller.hh"
#include "sim/logging.hh"

namespace tlr
{

const char *
reqTypeName(ReqType t)
{
    switch (t) {
      case ReqType::GetS: return "GetS";
      case ReqType::GetX: return "GetX";
      case ReqType::Upgrade: return "Upg";
      case ReqType::WriteBack: return "WB";
    }
    return "?";
}

Interconnect::Interconnect(EventQueue &eq, StatSet &stats,
                           InterconnectParams params)
    : eq_(eq), stats_(stats), params_(params),
      txnCount_(stats.counter("bus", "transactions")),
      dataMsgs_(stats.counter("net", "dataMsgs")),
      markerMsgs_(stats.counter("net", "markerMsgs")),
      probeMsgs_(stats.counter("net", "probeMsgs"))
{
}

void
Interconnect::addSnooper(Snooper *s)
{
    if (s->id() != static_cast<CpuId>(snoopers_.size()))
        fatal("snoopers must be added in CpuId order");
    snoopers_.push_back(s);
}

void
Interconnect::sendData(CpuId to, const DataMsg &msg)
{
    ++dataMsgs_;
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Net, TraceEvent::CohData,
                     msg.from, msg.line,
                     static_cast<std::uint64_t>(to),
                     static_cast<std::uint64_t>(msg.grant));
    eq_.scheduleIn(params_.dataLatency,
                   [this, to, msg] {
                       snoopers_.at(static_cast<size_t>(to))
                           ->dataResponse(msg);
                   },
                   EventPrio::DataResponse);
}

void
Interconnect::sendMarker(CpuId to, const MarkerMsg &msg)
{
    ++markerMsgs_;
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Net, TraceEvent::CohMarker,
                     msg.from, msg.line,
                     static_cast<std::uint64_t>(to));
    eq_.scheduleIn(params_.dataLatency,
                   [this, to, msg] {
                       snoopers_.at(static_cast<size_t>(to))->marker(msg);
                   },
                   EventPrio::DataResponse);
}

void
Interconnect::sendProbe(CpuId to, const ProbeMsg &msg)
{
    ++probeMsgs_;
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Net, TraceEvent::CohProbe,
                     msg.from, msg.line,
                     static_cast<std::uint64_t>(to), msg.ts.clock,
                     packTsMeta(msg.ts));
    eq_.scheduleIn(params_.dataLatency,
                   [this, to, msg] {
                       snoopers_.at(static_cast<size_t>(to))->probe(msg);
                   },
                   EventPrio::DataResponse);
}

//
// ---- BroadcastInterconnect ----------------------------------------------
//

void
BroadcastInterconnect::addSnooper(Snooper *s)
{
    Interconnect::addSnooper(s);
    queues_.emplace_back();
}

void
BroadcastInterconnect::submit(const BusRequest &req)
{
    BusRequest r = req;
    r.sn = nextSn_++;
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Bus, TraceEvent::CohSubmit,
                     r.requester, r.line,
                     static_cast<std::uint64_t>(r.type), r.ts.clock,
                     packTsMeta(r.ts));
    queues_.at(static_cast<size_t>(r.requester)).push_back(r);
    if (!arbScheduled_) {
        arbScheduled_ = true;
        eq_.scheduleIn(1, [this] { arbitrate(); },
                       EventPrio::BusArbitration);
    }
}

void
BroadcastInterconnect::arbitrate()
{
    // Round-robin grant of one address transaction.
    size_t n = queues_.size();
    for (size_t i = 0; i < n; ++i) {
        size_t idx = (rrNext_ + i) % n;
        if (!queues_[idx].empty()) {
            BusRequest req = queues_[idx].front();
            queues_[idx].pop_front();
            rrNext_ = idx + 1;
            ++txnCount_;
            eq_.scheduleIn(params_.snoopLatency,
                           [this, req] { deliver(req); }, EventPrio::Snoop);
            break;
        }
    }
    for (const auto &q : queues_) {
        if (!q.empty()) {
            eq_.scheduleIn(params_.addrOccupancy, [this] { arbitrate(); },
                           EventPrio::BusArbitration);
            return;
        }
    }
    arbScheduled_ = false;
}

void
BroadcastInterconnect::deliver(BusRequest req)
{
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Bus, TraceEvent::CohOrder,
                     req.requester, req.line,
                     static_cast<std::uint64_t>(req.type), req.sn,
                     req.ts.clock, packTsMeta(req.ts));

    if (req.type == ReqType::WriteBack) {
        // Data already absorbed functionally at eviction time; the bus
        // transaction accounts for address-network occupancy only.
        return;
    }

    if (req.type == ReqType::Upgrade &&
        !snoopers_.at(static_cast<size_t>(req.requester))
             ->upgradeValid(req.line)) {
        // Stale upgrade: the requester lost its copy while the request
        // was in flight. It must not invalidate anyone; the requester
        // converts it to a GetX at its order point.
        snoopers_.at(static_cast<size_t>(req.requester))
            ->ownRequestOrdered(req);
        return;
    }

    bool anyOwner = false;
    bool anySharer = false;
    for (Snooper *s : snoopers_) {
        if (s->id() == req.requester)
            continue;
        // Snoop filter: a controller holding no state for the line —
        // no valid copy, no victim copy, no MSHR — answers with a
        // strict no-op, so the call can be elided outright.
        if (!s->holdsLineState(req.line))
            continue;
        SnoopReply r = s->snoop(req);
        anyOwner |= r.owner;
        anySharer |= r.sharer;
    }
    snoopers_.at(static_cast<size_t>(req.requester))
        ->ownRequestOrdered(req);
    if (!anyOwner &&
        (req.type == ReqType::GetS || req.type == ReqType::GetX)) {
        mem_->supply(req, anySharer);
    }
}

} // namespace tlr
