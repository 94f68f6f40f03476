#include "trace/checkers.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tlr
{

void
CheckerContext::violation(const char *checker, Tick tick,
                          const std::string &msg)
{
    if (stats) {
        ++stats->counter("trace", "violations");
        ++stats->counter("trace",
                         std::string("violations.") + checker);
    }
    if (keepGoing) {
        warn("invariant %s violated @%llu: %s", checker,
             static_cast<unsigned long long>(tick), msg.c_str());
        return;
    }
    if (sink)
        sink->dumpRecent(stderr);
    panic("invariant %s violated @%llu: %s", checker,
          static_cast<unsigned long long>(tick), msg.c_str());
}

// ---------------------------------------------------------------------
// SingleOwnerChecker

namespace
{

bool
isWritable(CohState s)
{
    return s == CohState::Modified || s == CohState::Exclusive;
}

} // namespace

void
SingleOwnerChecker::onRecord(const TraceRecord &r)
{
    if (r.comp != TraceComp::L1 || r.cpu < 0)
        return;

    CohState next;
    switch (r.kind) {
      case TraceEvent::LineInstall:
      case TraceEvent::LineDowngrade:
        next = static_cast<CohState>(r.a0);
        break;
      case TraceEvent::LineUpgrade:
        next = CohState::Modified;
        break;
      case TraceEvent::LineInval:
        next = CohState::Invalid;
        break;
      default:
        return;
    }

    CohState &held = cpuSlot(held_, r.cpu)[r.addr];
    Copies &c = copies_[r.addr];
    c.valid -= held != CohState::Invalid;
    c.writable -= isWritable(held);
    held = next;
    c.valid += held != CohState::Invalid;
    c.writable += isWritable(held);

    // Removal cannot create a violation; otherwise validate the line
    // whose state just changed.
    if (r.kind != TraceEvent::LineInval &&
        (c.writable > 1 || (c.writable == 1 && c.valid > 1)))
        report(r, c);
}

void
SingleOwnerChecker::report(const TraceRecord &r, const Copies &c) const
{
    // Name the writable holders in ascending cpu order.
    CpuId first = invalidCpu;
    for (size_t cpu = 0; cpu < held_.size(); ++cpu) {
        const CohState *s = held_[cpu].find(r.addr);
        if (!s || !isWritable(*s))
            continue;
        if (first == invalidCpu) {
            first = static_cast<CpuId>(cpu);
            if (c.writable == 1)
                break;
            continue;
        }
        ctx_.violation("single-owner", r.tick,
                       strfmt("line %#llx writable in cpu%d and cpu%d",
                              static_cast<unsigned long long>(r.addr),
                              first, static_cast<CpuId>(cpu)));
        return;
    }
    ctx_.violation(
        "single-owner", r.tick,
        strfmt("line %#llx writable in cpu%d but %d copies exist",
               static_cast<unsigned long long>(r.addr), first,
               static_cast<int>(c.valid)));
}

// ---------------------------------------------------------------------
// TimestampOrderChecker

void
TimestampOrderChecker::onRecord(const TraceRecord &r)
{
    if (r.kind != TraceEvent::CohLose)
        return;

    Timestamp winner = unpackTs(r.a0, r.a1);
    Timestamp own = unpackTs(r.a2, r.a3);

    if (own.valid && winner.valid && !winner.earlierThan(own)) {
        ctx_.violation(
            "timestamp-order", r.tick,
            strfmt("cpu%d lost line %#llx to later %s (own %s)", r.cpu,
                   static_cast<unsigned long long>(r.addr),
                   winner.str().c_str(), own.str().c_str()));
        return;
    }
    // An un-timestamped winner beating a timestamped transaction is
    // only a bug when the engine's policy says such requests must be
    // deferred (paper Section 2.2 discusses both choices).
    if (own.valid && !winner.valid && ctx_.deferUntimestamped) {
        ctx_.violation(
            "timestamp-order", r.tick,
            strfmt("cpu%d (own %s) lost line %#llx to an "
                   "un-timestamped request despite defer policy",
                   r.cpu, own.str().c_str(),
                   static_cast<unsigned long long>(r.addr)));
    }
}

// ---------------------------------------------------------------------
// DeferralCycleChecker

void
DeferralCycleChecker::setAdjacent(CpuId waiter, CpuId holder, bool on)
{
    const auto need = static_cast<size_t>(std::max(waiter, holder)) + 1;
    if (need > cpus_) {
        // Grow to a whole number of 64-cpu words and rebuild the rows.
        cpus_ = (need + 63) / 64 * 64;
        words_ = cpus_ / 64;
        adj_.assign(cpus_ * words_, 0);
        for (const Edge &e : edges_)
            setAdjacent(e.waiter, e.holder, true);
    }
    span_ = std::max(span_, need);
    std::uint64_t &w = adj_[static_cast<size_t>(waiter) * words_ +
                            static_cast<size_t>(holder) / 64];
    const std::uint64_t bit = 1ull << (holder % 64);
    w = on ? (w | bit) : (w & ~bit);
}

template <typename Pred>
bool
DeferralCycleChecker::dropEdges(Pred pred)
{
    bool changed = false;
    for (size_t i = 0; i < edges_.size();) {
        if (!pred(edges_[i])) {
            ++i;
            continue;
        }
        const Edge gone = edges_[i];
        edges_[i] = edges_.back();
        edges_.pop_back();
        changed = true;
        bool still = false;
        for (const Edge &e : edges_)
            still |= e.waiter == gone.waiter && e.holder == gone.holder;
        if (!still)
            setAdjacent(gone.waiter, gone.holder, false);
    }
    return changed;
}

void
DeferralCycleChecker::onRecord(const TraceRecord &r)
{
    switch (r.kind) {
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer: {
        const Edge e{static_cast<CpuId>(r.a0), r.cpu, r.addr};
        if (e.waiter < 0 || e.holder < 0)
            return;
        for (const Edge &o : edges_) {
            if (o.waiter == e.waiter && o.holder == e.holder &&
                o.line == e.line)
                return;
        }
        edges_.push_back(e);
        setAdjacent(e.waiter, e.holder, true);
        edgesChanged(r.tick, true);
        return;
      }
      case TraceEvent::CohService: {
        // The holder released this line to one specific waiter.
        const auto waiter = static_cast<CpuId>(r.a0);
        if (dropEdges([&](const Edge &e) {
                return e.waiter == waiter && e.holder == r.cpu &&
                       e.line == r.addr;
            }))
            edgesChanged(r.tick, false);
        return;
      }
      case TraceEvent::CohDeferDrain:
        // Commit/abort drains everything deferred at this holder.
        if (dropEdges([&](const Edge &e) { return e.holder == r.cpu; }))
            edgesChanged(r.tick, false);
        return;
      case TraceEvent::TxnRestart:
      case TraceEvent::TxnCommit:
        // A cpu leaving speculation can no longer be waiting on
        // anyone's deferral queue; drop its outgoing edges.
        if (dropEdges([&](const Edge &e) { return e.waiter == r.cpu; }))
            edgesChanged(r.tick, false);
        return;
      default:
        return;
    }
}

bool
DeferralCycleChecker::hasCycle(size_t *cycle_start)
{
    // Iterative DFS with colors; roots and neighbours in ascending cpu
    // order, so the reported cycle is the first one that order meets.
    color_.assign(span_, 0);
    auto nextHolder = [&](size_t u, size_t from) -> size_t {
        const std::uint64_t *w = &adj_[u * words_];
        for (size_t i = from / 64; i < words_; ++i) {
            std::uint64_t bits = w[i];
            if (i == from / 64)
                bits &= ~0ull << (from % 64);
            if (bits)
                return i * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        }
        return cpus_;
    };
    for (size_t root = 0; root < span_; ++root) {
        if (color_[root] != 0 || nextHolder(root, 0) == cpus_)
            continue;
        color_[root] = 1;
        stack_.assign(1, static_cast<CpuId>(root));
        cursor_.assign(1, 0);
        while (!stack_.empty()) {
            const auto u = static_cast<size_t>(stack_.back());
            const size_t v = nextHolder(u, cursor_.back());
            if (v == cpus_) {
                color_[u] = 2;
                stack_.pop_back();
                cursor_.pop_back();
                continue;
            }
            cursor_.back() = v + 1;
            if (color_[v] == 1) {
                *cycle_start = static_cast<size_t>(
                    std::find(stack_.begin(), stack_.end(),
                              static_cast<CpuId>(v)) -
                    stack_.begin());
                return true;
            }
            if (color_[v] == 0) {
                color_[v] = 1;
                stack_.push_back(static_cast<CpuId>(v));
                cursor_.push_back(0);
            }
        }
    }
    return false;
}

void
DeferralCycleChecker::edgesChanged(Tick now, bool added)
{
    // Dropping edges cannot close a cycle in an acyclic graph.
    if (!added && !cyclePresent_)
        return;
    size_t start = 0;
    bool cyc = hasCycle(&start);
    if (cyc && !cyclePresent_) {
        cyclePresent_ = true;
        cycleSince_ = now;
        cycleNodes_.assign(stack_.begin() + static_cast<long>(start),
                           stack_.end());
    } else if (!cyc) {
        cyclePresent_ = false;
        cycleNodes_.clear();
    }
    // A *persistent* cycle is the bug; transient cycles form and are
    // broken by markers/probes (paper Fig. 6) or the yield timer.
    if (cyclePresent_ && now - cycleSince_ > ctx_.cycleStuckTicks)
        report(now);
}

void
DeferralCycleChecker::report(Tick now)
{
    std::string nodes;
    for (CpuId c : cycleNodes_)
        nodes += strfmt("%scpu%d", nodes.empty() ? "" : " -> ", c);
    ctx_.violation(
        "deferral-cycle", now,
        strfmt("waits-for cycle [%s] unbroken for %llu ticks",
               nodes.c_str(),
               static_cast<unsigned long long>(now - cycleSince_)));
    // keepGoing mode: restart the persistence clock so one stuck
    // cycle reports once per window instead of on every edge change.
    cycleSince_ = now;
}

void
DeferralCycleChecker::finish(Tick now)
{
    if (cyclePresent_ && now - cycleSince_ > ctx_.cycleStuckTicks)
        report(now);
}

// ---------------------------------------------------------------------
// AtomicityChecker

void
AtomicityChecker::noteRead(CpuId cpu, Addr addr, std::uint64_t value)
{
    // The oracle learns a word lazily, on first observation: workload
    // initialisation writes directly into backing store and emits no
    // events, so the first traced read defines the starting value.
    if (!shadow_.find(addr))
        shadow_[addr] = value;
    // Keep the FIRST value read in this transaction; later reads of
    // the same word hit the cache and must agree with it, which the
    // commit-time check against the shadow subsumes.
    ReadSet &rs = cpuSlot(readSets_, cpu);
    std::uint64_t &gen = rs.seen[addr];
    if (gen != rs.gen) {
        gen = rs.gen;
        rs.words.emplace_back(addr, value);
    }
}

void
AtomicityChecker::discard(CpuId cpu)
{
    ReadSet &rs = cpuSlot(readSets_, cpu);
    rs.words.clear();
    ++rs.gen;
}

void
AtomicityChecker::onRecord(const TraceRecord &r)
{
    if (r.kind == TraceEvent::TxnWrite || r.kind == TraceEvent::MemWrite) {
        shadow_[r.addr] = r.a0;
        return;
    }
    if (r.cpu < 0)
        return;
    switch (r.kind) {
      case TraceEvent::TxnElide:
      case TraceEvent::TxnNest:
        // Eliding reads the lock word and predicts it free; that read
        // is part of the transaction's read set.
        noteRead(r.cpu, r.addr, r.a0);
        return;
      case TraceEvent::TxnRead:
        noteRead(r.cpu, r.addr, r.a0);
        return;
      case TraceEvent::TxnRestart:
      case TraceEvent::TxnQuantumEnd:
        // Aborted speculation discards its read set.
        discard(r.cpu);
        return;
      case TraceEvent::TxnCommitStart:
        // Atomic commit point: every word this transaction read must
        // still hold the value it read, or some conflicting write
        // slipped past the coherence protocol without aborting us.
        for (const auto &[addr, readval] : cpuSlot(readSets_, r.cpu).words) {
            const std::uint64_t *sh = shadow_.find(addr);
            const std::uint64_t cur = sh ? *sh : readval;
            if (cur != readval) {
                ctx_.violation(
                    "atomicity", r.tick,
                    strfmt("cpu%d commits having read %#llx=%llu "
                           "but globally visible value is %llu",
                           r.cpu, static_cast<unsigned long long>(addr),
                           static_cast<unsigned long long>(readval),
                           static_cast<unsigned long long>(cur)));
            }
        }
        discard(r.cpu);
        return;
      default:
        return;
    }
}

// ---------------------------------------------------------------------
// InvariantRegistry

InvariantRegistry::InvariantRegistry(StatSet &stats, TraceSink *sink,
                                     const TraceParams &params,
                                     bool defer_untimestamped,
                                     Tick yield_timeout)
    : owner_(ctx_), tsOrder_(ctx_), cycles_(ctx_), atomicity_(ctx_)
{
    ctx_.stats = &stats;
    ctx_.sink = sink;
    ctx_.keepGoing = params.keepGoingOnViolation;
    ctx_.deferUntimestamped = defer_untimestamped;
    if (params.cycleStuckTicks > 0) {
        ctx_.cycleStuckTicks = params.cycleStuckTicks;
    } else {
        // Default bound: well past the point where the yield timer
        // must have fired and broken any real cycle.
        ctx_.cycleStuckTicks = 20 * yield_timeout + 20'000;
    }
    // Ensure the counter exists even on clean runs, so consumers can
    // distinguish "checked, zero violations" from "never checked".
    stats.counter("trace", "violations");
}

void
InvariantRegistry::onRecord(const TraceRecord &r)
{
    owner_.onRecord(r);
    tsOrder_.onRecord(r);
    cycles_.onRecord(r);
    atomicity_.onRecord(r);
}

void
InvariantRegistry::finish(Tick now)
{
    owner_.finish(now);
    tsOrder_.finish(now);
    cycles_.finish(now);
    atomicity_.finish(now);
}

std::uint64_t
InvariantRegistry::violations() const
{
    return ctx_.stats ? ctx_.stats->get("trace", "violations") : 0;
}

} // namespace tlr
