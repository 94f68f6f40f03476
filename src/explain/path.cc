#include "explain/path.hh"

#include <algorithm>

#include "sim/flat_containers.hh"

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
CriticalPathAccountant::classify(CpuState &o, TxnInstance &t,
                                 Tick lastRestartTick)
{
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
                dst.push_back({s, e, i.owner, i.line});
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
        std::min(std::max(lastRestartTick, begin), end);
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
    for (const Interval &d : clipDefer_) {
        if (d.end - d.start > t.longestDeferSpan) {
            t.longestDeferSpan = d.end - d.start;
            t.longestDeferOwner = d.owner;
            t.longestDeferLine = d.line;
            t.longestDeferTick = d.start;
        }
    }
}

void
CriticalPathAccountant::closeInstance(const TxnState::Txn &txn)
{
    CpuState &o = cpuSlot(cpus_, txn.cpu);
    const Tick end = txn.end;

    // Attribute still-open wait intervals up to the close tick. A
    // deferral stays open in the reducer; only its span so far
    // belongs to this instance.
    for (const TxnState::Deferral &d : state().waiting(txn.cpu)) {
        o.defer.push_back({d.start, end, d.owner, d.line});
    }
    for (const OpenMiss &m : o.missOpen)
        o.miss.push_back({m.start, end});
    o.missOpen.clear();

    TxnInstance t;
    t.serial = txn.serial;
    t.cpu = txn.cpu;
    t.lock = txn.lock;
    t.begin = txn.begin;
    t.end = end;
    t.restarts = txn.restarts;
    t.outcome = txn.outcomeName();
    t.lastRestartWinner = txn.lastWinner;
    classify(o, t, txn.lastRestart);
    o.closed.push_back(instances_.size());
    instances_.push_back(std::move(t));
}

void
CriticalPathAccountant::apply(const TxnState::Change &c)
{
    if (c.closed)
        closeInstance(*c.closed);
    if (c.opened) {
        CpuState &o = cpuSlot(cpus_, c.opened->cpu);
        o.defer.clear();
        o.miss.clear();
    }
    const TxnState::Deferral *d = c.deferClosed;
    if (d && state().live(d->waiter))
        cpuSlot(cpus_, d->waiter)
            .defer.push_back({d->start, c.tick, d->owner, d->line});
    if (!c.record || c.record->cpu < 0)
        return;
    const TraceRecord &r = *c.record;
    switch (r.kind) {
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
        if (state().live(r.cpu))
            o.miss.push_back({it->start, r.tick});
        o.missOpen.erase(it);
        return;
      }
      default:
        return;
    }
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
