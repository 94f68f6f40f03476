#include "explain/graph.hh"

#include <algorithm>

namespace tlr
{

const std::vector<ConflictGraphBuilder::Pending> &
ConflictGraphBuilder::pendingOf(std::int16_t cpu) const
{
    static const std::vector<Pending> none;
    return cpu >= 0 && static_cast<size_t>(cpu) < pending_.size()
               ? pending_[static_cast<size_t>(cpu)]
               : none;
}

void
ConflictGraphBuilder::addDefer(const TraceRecord &r, bool relaxed)
{
    auto waiter = static_cast<std::int16_t>(r.a0);
    if (waiter < 0)
        return;
    LineState &ls = lines_[r.addr];
    std::vector<Pending> &mine = cpuSlot(pending_, waiter);
    auto it = lowerBound(mine, r.addr);
    if (it != mine.end() && it->line == r.addr) {
        // The same waiter re-deferred on the same line without an
        // intervening service record: close the stale edge here so
        // spans never overlap.
        edges_[it->edge].end = r.tick;
    } else {
        it = mine.insert(it, Pending{r.addr, 0});
        ++ls.waiters;
    }
    it->edge = edges_.size();

    DeferEdge e;
    e.waiter = waiter;
    e.owner = r.cpu;
    e.line = r.addr;
    e.start = r.tick;
    e.end = r.tick;
    e.relaxed = relaxed;
    e.waiterTs = unpackTs(r.a2, r.a3);
    edges_.push_back(e);

    LineContention &lc = ls.contention;
    ++lc.defers;
    if (relaxed)
        ++lc.relaxedDefers;
    lc.maxQueue = std::max(lc.maxQueue, ls.waiters);

    detectCycleFrom(waiter, r.cpu, r.tick);
}

void
ConflictGraphBuilder::detectCycleFrom(std::int16_t waiter,
                                      std::int16_t owner, Tick tick)
{
    // The new edge waiter → owner closes a cycle iff owner already
    // waits (transitively) on waiter through pending edges. Depth-first
    // from owner, each cpu's pending edges in ascending line order,
    // keeping the first-found path.
    if (++seenGen_ == 0) {
        std::fill(seen_.begin(), seen_.end(), 0);
        seenGen_ = 1;
    }
    auto mark = [&](std::int16_t c) {
        if (c < 0)
            return false;
        std::uint32_t &s = cpuSlot(seen_, c);
        const bool was = s == seenGen_;
        s = seenGen_;
        return was;
    };
    mark(waiter);
    mark(owner);
    path_.assign({waiter, owner});
    cursor_.assign(1, 0);
    while (!cursor_.empty()) {
        const std::vector<Pending> &from = pendingOf(path_.back());
        size_t &next = cursor_.back();
        if (next == from.size()) {
            cursor_.pop_back();
            if (!cursor_.empty())
                path_.pop_back();
            continue;
        }
        const DeferEdge &e = edges_[from[next++].edge];
        if (e.owner == waiter) {
            cycles_.push_back({path_, tick});
            return;
        }
        if (mark(e.owner))
            continue;
        path_.push_back(e.owner);
        cursor_.push_back(0);
    }
}

void
ConflictGraphBuilder::onRecord(const TraceRecord &r)
{
    switch (r.kind) {
      case TraceEvent::CohDefer:
        addDefer(r, false);
        return;
      case TraceEvent::CohRelaxedDefer:
        addDefer(r, true);
        return;
      case TraceEvent::CohService: {
        auto waiter = static_cast<std::int16_t>(r.a0);
        if (waiter < 0 || static_cast<size_t>(waiter) >= pending_.size())
            return;
        std::vector<Pending> &mine = pending_[static_cast<size_t>(waiter)];
        auto it = lowerBound(mine, r.addr);
        if (it == mine.end() || it->line != r.addr)
            return; // chain service with no prior defer record
        DeferEdge &e = edges_[it->edge];
        e.end = r.tick;
        e.serviced = true;
        e.cause = static_cast<ServiceCause>(r.a1);
        LineState &ls = lines_[r.addr];
        ls.contention.waitTicks += e.span();
        --ls.waiters;
        mine.erase(it);
        return;
      }
      case TraceEvent::TxnRestart: {
        RestartEdge e;
        e.loser = r.cpu;
        Timestamp winner = unpackTs(0, r.a3);
        e.winner = winner.valid ? winner.cpu : std::int16_t{-1};
        e.line = r.addr;
        e.tick = r.tick;
        e.reason = r.a0;
        restarts_.push_back(e);
        if (r.addr != 0)
            ++lines_[r.addr].contention.restarts;
        return;
      }
      default:
        return;
    }
}

void
ConflictGraphBuilder::finish(Tick now)
{
    for (std::vector<Pending> &mine : pending_) {
        for (const Pending &p : mine) {
            DeferEdge &e = edges_[p.edge];
            e.end = now;
            LineState &ls = lines_[e.line];
            ls.contention.waitTicks += e.span();
            --ls.waiters;
        }
        mine.clear();
    }
}

std::map<Addr, LineContention>
ConflictGraphBuilder::lines() const
{
    std::map<Addr, LineContention> out;
    lines_.forEach([&](Addr line, const LineState &ls) {
        out.emplace(line, ls.contention);
    });
    return out;
}

std::vector<Addr>
ConflictGraphBuilder::convoyLines(unsigned minQueue) const
{
    std::vector<Addr> out;
    lines_.forEach([&](Addr line, const LineState &ls) {
        if (ls.contention.maxQueue >= minQueue)
            out.push_back(line);
    });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace tlr
