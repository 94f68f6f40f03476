#include "explain/path.hh"

#include <algorithm>

#include "coherence/l1_controller.hh"
#include "trace/listener_state.hh"

namespace tlr
{

namespace
{

/** True when [a,b) lies inside any interval of @p iv. The segment is
 *  guaranteed homogeneous: every interval endpoint is a boundary. */
template <typename Iv>
bool
covered(const std::vector<Iv> &iv, Tick a, Tick b)
{
    for (const Iv &i : iv) {
        if (i.start <= a && b <= i.end)
            return true;
    }
    return false;
}

} // namespace

void
CriticalPathAccountant::classify(CpuState &o)
{
    TxnInstance &t = o.inst;
    const Tick begin = t.begin, end = t.end;
    if (end <= begin)
        return;

    auto clip = [&](const std::vector<Interval> &src,
                    std::vector<Interval> &dst) {
        dst.clear();
        for (const Interval &i : src) {
            Tick s = std::max(i.start, begin);
            Tick e = std::min(i.end, end);
            if (s < e)
                dst.push_back({s, e});
        }
    };
    clip(o.defer, clipDefer_);
    clip(o.miss, clipMiss_);

    bounds_.assign({begin, end});
    for (const Interval &i : clipDefer_) {
        bounds_.push_back(i.start);
        bounds_.push_back(i.end);
    }
    for (const Interval &i : clipMiss_) {
        bounds_.push_back(i.start);
        bounds_.push_back(i.end);
    }
    const Tick lastRestart =
        std::min(std::max(o.lastRestartTick, begin), end);
    if (t.restarts > 0)
        bounds_.push_back(lastRestart);
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                  bounds_.end());

    for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
        const Tick a = bounds_[i], b = bounds_[i + 1];
        if (covered(clipDefer_, a, b))
            t.deferTicks += b - a;
        else if (covered(clipMiss_, a, b))
            t.missTicks += b - a;
        else if (t.restarts > 0 && b <= lastRestart)
            t.redoTicks += b - a;
        else
            t.execTicks += b - a;
    }

    // Longest single deferral → the causal-chain hop for this txn.
    for (const DeferDetail &d : o.deferDetail) {
        Tick s = std::max(d.span.start, begin);
        Tick e = std::min(d.span.end, end);
        if (s >= e)
            continue;
        if (e - s > t.longestDeferSpan) {
            t.longestDeferSpan = e - s;
            t.longestDeferOwner = d.owner;
            t.longestDeferLine = d.line;
            t.longestDeferTick = s;
        }
    }
}

void
CriticalPathAccountant::closeInstance(std::int16_t cpu, Tick end,
                                      std::string outcome)
{
    if (cpu < 0 || static_cast<size_t>(cpu) >= cpus_.size())
        return;
    CpuState &o = cpus_[static_cast<size_t>(cpu)];
    if (!o.open)
        return;

    // Attribute still-open wait intervals up to the close tick.
    for (const OpenDefer &d : o.deferOpen) {
        o.defer.push_back({d.start, end});
        o.deferDetail.push_back({{d.start, end}, d.owner, d.line});
    }
    o.deferOpen.clear();
    for (const OpenMiss &m : o.missOpen)
        o.miss.push_back({m.start, end});
    o.missOpen.clear();

    o.inst.end = end;
    o.inst.outcome = std::move(outcome);
    classify(o);
    o.closed.push_back(instances_.size());
    instances_.push_back(o.inst);
    o.open = false;
}

void
CriticalPathAccountant::onRecord(const TraceRecord &r)
{
    if (r.cpu < 0)
        return;
    switch (r.kind) {
      case TraceEvent::TxnElide: {
        if (r.a3 == 0)
            return; // re-elision inside an open instance
        closeInstance(r.cpu, r.tick, "unfinished");
        CpuState &o = cpuSlot(cpus_, r.cpu);
        o.open = true;
        o.inst = TxnInstance{};
        o.inst.serial = nextSerial_++;
        o.inst.cpu = r.cpu;
        o.inst.lock = r.addr;
        o.inst.begin = r.tick;
        o.defer.clear();
        o.miss.clear();
        o.deferDetail.clear();
        o.lastRestartTick = 0;
        return;
      }
      case TraceEvent::TxnRestart: {
        CpuState &o = cpuSlot(cpus_, r.cpu);
        if (o.open) {
            ++o.inst.restarts;
            o.lastRestartTick = r.tick;
            Timestamp winner = unpackTs(0, r.a3);
            o.inst.lastRestartWinner =
                winner.valid ? winner.cpu : std::int16_t{-1};
        }
        if (r.a2 != 0) {
            closeInstance(
                r.cpu, r.tick,
                std::string("fallback:") +
                    abortReasonName(static_cast<AbortReason>(r.a0)));
        }
        return;
      }
      case TraceEvent::TxnCommit:
        closeInstance(r.cpu, r.tick, "commit");
        return;
      case TraceEvent::TxnQuantumEnd:
        closeInstance(r.cpu, r.tick, "quantum-end");
        return;
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer: {
        auto waiter = static_cast<std::int16_t>(r.a0);
        if (waiter < 0)
            return;
        std::vector<OpenDefer> &open = cpuSlot(cpus_, waiter).deferOpen;
        auto it = lowerBound(open, r.addr);
        if (it == open.end() || it->line != r.addr)
            it = open.insert(it, OpenDefer{r.addr, 0, -1});
        it->start = r.tick;
        it->owner = r.cpu;
        return;
      }
      case TraceEvent::CohService: {
        auto waiter = static_cast<std::int16_t>(r.a0);
        if (waiter < 0 || static_cast<size_t>(waiter) >= cpus_.size())
            return;
        CpuState &o = cpus_[static_cast<size_t>(waiter)];
        auto it = lowerBound(o.deferOpen, r.addr);
        if (it == o.deferOpen.end() || it->line != r.addr)
            return;
        if (o.open) {
            o.defer.push_back({it->start, r.tick});
            o.deferDetail.push_back({{it->start, r.tick}, it->owner, r.addr});
        }
        o.deferOpen.erase(it);
        return;
      }
      case TraceEvent::CohMiss: {
        std::vector<OpenMiss> &open = cpuSlot(cpus_, r.cpu).missOpen;
        auto it = lowerBound(open, r.addr);
        if (it == open.end() || it->line != r.addr)
            it = open.insert(it, OpenMiss{r.addr, 0});
        it->start = r.tick;
        return;
      }
      case TraceEvent::LineInstall: {
        if (static_cast<size_t>(r.cpu) >= cpus_.size())
            return;
        CpuState &o = cpus_[static_cast<size_t>(r.cpu)];
        auto it = lowerBound(o.missOpen, r.addr);
        if (it == o.missOpen.end() || it->line != r.addr)
            return;
        if (o.open)
            o.miss.push_back({it->start, r.tick});
        o.missOpen.erase(it);
        return;
      }
      default:
        return;
    }
}

void
CriticalPathAccountant::finish(Tick now)
{
    for (size_t cpu = 0; cpu < cpus_.size(); ++cpu)
        closeInstance(static_cast<std::int16_t>(cpu), now, "unfinished");
}

const TxnInstance *
CriticalPathAccountant::instanceAt(std::int16_t cpu, Tick tick) const
{
    if (cpu < 0 || static_cast<size_t>(cpu) >= cpus_.size())
        return nullptr;
    const std::vector<size_t> &idx = cpus_[static_cast<size_t>(cpu)].closed;
    // Last instance with begin <= tick (instances on one cpu are
    // chronological and non-overlapping).
    auto pos = std::upper_bound(
        idx.begin(), idx.end(), tick, [this](Tick t, size_t i) {
            return t < instances_[i].begin;
        });
    if (pos == idx.begin())
        return nullptr;
    const TxnInstance &cand = instances_[*(pos - 1)];
    return (tick <= cand.end) ? &cand : nullptr;
}

} // namespace tlr
