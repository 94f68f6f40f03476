#include "explain/graph.hh"

#include <algorithm>
#include <cassert>

namespace tlr
{

void
ConflictGraphBuilder::addDefer(const TxnState::Deferral &d)
{
    assert(d.serial == edges_.size());
    edges_.push_back({d.waiter, d.owner, d.line, d.start, d.start, false,
                      d.relaxed, ServiceCause::Chain, d.waiterTs});

    LineContention &lc = lines_[d.line];
    ++lc.defers;
    if (d.relaxed)
        ++lc.relaxedDefers;
    lc.maxQueue = std::max(lc.maxQueue, state().waiters(d.line));

    detectCycleFrom(d.waiter, d.owner, d.start);
}

void
ConflictGraphBuilder::detectCycleFrom(std::int16_t waiter,
                                      std::int16_t owner, Tick tick)
{
    // The new edge waiter → owner closes a cycle iff owner already
    // waits (transitively) on waiter through open deferrals. Depth-
    // first from owner, each cpu's open deferrals in ascending line
    // order, keeping the first-found path.
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
        const std::vector<TxnState::Deferral> &from =
            state().waiting(path_.back());
        size_t &next = cursor_.back();
        if (next == from.size()) {
            cursor_.pop_back();
            if (!cursor_.empty())
                path_.pop_back();
            continue;
        }
        const std::int16_t owner = from[next++].owner;
        if (owner == waiter) {
            cycles_.push_back({path_, tick});
            return;
        }
        if (mark(owner))
            continue;
        path_.push_back(owner);
        cursor_.push_back(0);
    }
}

void
ConflictGraphBuilder::apply(const TxnState::Change &c)
{
    if (c.deferOpened)
        addDefer(*c.deferOpened);
    if (const TxnState::Deferral *d = c.deferClosed) {
        DeferEdge &e = edges_[d->serial];
        e.end = c.tick;
        if (c.record) {
            e.serviced = true;
            e.cause = static_cast<ServiceCause>(c.record->a1);
        }
        lines_[d->line].waitTicks += e.span();
    }
    if (!c.record || c.record->kind != TraceEvent::TxnRestart)
        return;
    const TraceRecord &r = *c.record;
    RestartEdge e;
    e.loser = r.cpu;
    Timestamp winner = unpackTs(0, r.a3);
    e.winner = winner.valid ? winner.cpu : std::int16_t{-1};
    e.line = r.addr;
    e.tick = r.tick;
    e.reason = r.a0;
    restarts_.push_back(e);
    if (r.addr != 0)
        ++lines_[r.addr].restarts;
}

std::map<Addr, LineContention>
ConflictGraphBuilder::lines() const
{
    std::map<Addr, LineContention> out;
    lines_.forEach([&](Addr line, const LineContention &lc) {
        out.emplace(line, lc);
    });
    return out;
}

std::vector<Addr>
ConflictGraphBuilder::convoyLines(unsigned minQueue) const
{
    std::vector<Addr> out;
    lines_.forEach([&](Addr line, const LineContention &lc) {
        if (lc.maxQueue >= minQueue)
            out.push_back(line);
    });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace tlr
