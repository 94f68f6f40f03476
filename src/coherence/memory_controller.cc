#include "coherence/memory_controller.hh"

#include "sim/logging.hh"

namespace tlr
{

MemoryController::MemoryController(EventQueue &eq, StatSet &stats,
                                   Interconnect &net, BackingStore &store,
                                   MemParams params)
    : eq_(eq), net_(net), store_(store), params_(params),
      supplies_(stats.counter("mem", "supplies")),
      writeBacks_(stats.counter("mem", "writeBacks")),
      l2Hits_(stats.counter("mem", "l2Hits")),
      l2Misses_(stats.counter("mem", "l2Misses"))
{
}

void
MemoryController::supply(const BusRequest &req, bool any_sharer)
{
    ++supplies_;
    bool l2Hit = store_.accessL2(req.line);
    if (l2Hit)
        ++l2Hits_;
    else
        ++l2Misses_;
    Tick latency = params_.l2Latency + (l2Hit ? 0 : params_.memLatency);

    DataMsg msg;
    msg.line = req.line;
    msg.data = store_.readLine(req.line);
    msg.from = invalidCpu;
    if (req.type == ReqType::GetX)
        msg.grant = Grant::ModifiedData;
    else
        msg.grant = any_sharer ? Grant::SharedData : Grant::ExclusiveData;

    CpuId to = req.requester;
    eq_.scheduleIn(latency,
                   [this, to, msg] { net_.sendData(to, msg); },
                   EventPrio::Default);
}

void
MemoryController::writeBack(Addr line_addr, const LineData &data)
{
    ++writeBacks_;
    store_.writeLine(line_addr, data);
}

} // namespace tlr
