#include "trace/txn_state.hh"

#include <utility>

namespace tlr
{

std::string
TxnState::Txn::outcomeName() const
{
    switch (outcome) {
      case Outcome::Commit: return "commit";
      case Outcome::Fallback:
        return std::string("fallback:") + abortReasonName(fallback);
      case Outcome::QuantumEnd: return "quantum-end";
      case Outcome::Unfinished: break;
    }
    return "unfinished";
}

const TxnState::Txn *
TxnState::live(int cpu) const
{
    if (cpu < 0 || static_cast<size_t>(cpu) >= cpus_.size())
        return nullptr;
    const Cpu &c = cpus_[static_cast<size_t>(cpu)];
    return c.open ? &c.txn : nullptr;
}

TxnState::Txn *
TxnState::liveTxn(int cpu)
{
    return const_cast<Txn *>(std::as_const(*this).live(cpu));
}

const std::vector<TxnState::Deferral> &
TxnState::waiting(int waiter) const
{
    static const std::vector<Deferral> none;
    return waiter >= 0 && static_cast<size_t>(waiter) < cpus_.size()
               ? cpus_[static_cast<size_t>(waiter)].waiting
               : none;
}

unsigned
TxnState::waiters(Addr line) const
{
    const unsigned *n = lineWaiters_.find(line);
    return n ? *n : 0;
}

bool
TxnState::close(int cpu, Tick end, Outcome outcome)
{
    Txn *t = liveTxn(cpu);
    if (!t)
        return false;
    cpus_[static_cast<size_t>(cpu)].open = false;
    closed_ = *t;
    closed_.end = end;
    closed_.outcome = outcome;
    change_.closed = &closed_;
    return true;
}

void
TxnState::closeDeferral(std::vector<Deferral> &mine,
                        std::vector<Deferral>::iterator it)
{
    deferClosed_ = *it;
    mine.erase(it);
    --*lineWaiters_.find(deferClosed_.line);
    change_.deferClosed = &deferClosed_;
}

void
TxnState::reduce(const TraceRecord &r)
{
    switch (r.kind) {
      case TraceEvent::TxnElide: {
        if (r.a3 == 0 || r.cpu < 0)
            break; // a re-elision continues the open instance
        close(r.cpu, r.tick, Outcome::Unfinished);
        Cpu &c = cpuSlot(cpus_, r.cpu);
        c.open = true;
        c.txn = Txn{};
        c.txn.serial = nextTxn_++;
        c.txn.cpu = r.cpu;
        c.txn.lock = r.addr;
        c.txn.begin = r.tick;
        c.txn.ts = unpackTs(r.a1, r.a2);
        change_.opened = &c.txn;
        break;
      }
      case TraceEvent::TxnNest:
        if (Txn *t = liveTxn(r.cpu))
            ++t->nests;
        break;
      case TraceEvent::TxnRestart: {
        Txn *t = liveTxn(r.cpu);
        if (!t)
            break;
        const Timestamp winner = unpackTs(0, r.a3);
        ++t->restarts;
        t->lastRestart = r.tick;
        t->lastWinner = winner.valid ? winner.cpu : std::int16_t{-1};
        t->inCommit = false;
        change_.restarted = t;
        if (r.a2 != 0) {
            t->fallback = static_cast<AbortReason>(r.a0);
            close(r.cpu, r.tick, Outcome::Fallback);
            change_.restarted = change_.closed;
        }
        break;
      }
      case TraceEvent::TxnCommitStart:
        if (Txn *t = liveTxn(r.cpu)) {
            t->inCommit = true;
            t->commitStart = r.tick;
        }
        break;
      case TraceEvent::TxnCommit:
        close(r.cpu, r.tick, Outcome::Commit);
        break;
      case TraceEvent::TxnQuantumEnd:
        close(r.cpu, r.tick, Outcome::QuantumEnd);
        break;
      case TraceEvent::CohDefer:
      case TraceEvent::CohRelaxedDefer: {
        const auto waiter = static_cast<std::int16_t>(r.a0);
        if (waiter < 0)
            break;
        std::vector<Deferral> &mine = cpuSlot(cpus_, waiter).waiting;
        auto it = lowerBound(mine, r.addr);
        if (it != mine.end() && it->line == r.addr)
            break; // a re-deferral keeps the first one
        const Deferral d{r.addr, waiter, r.cpu, r.tick,
                         r.kind == TraceEvent::CohRelaxedDefer,
                         unpackTs(r.a2, r.a3), nextDeferral_++};
        change_.deferOpened = &*mine.insert(it, d);
        ++lineWaiters_[r.addr];
        break;
      }
      case TraceEvent::CohService: {
        const auto waiter = static_cast<std::int16_t>(r.a0);
        if (waiter < 0 || static_cast<size_t>(waiter) >= cpus_.size())
            break;
        std::vector<Deferral> &mine =
            cpus_[static_cast<size_t>(waiter)].waiting;
        auto it = lowerBound(mine, r.addr);
        if (it != mine.end() && it->line == r.addr)
            closeDeferral(mine, it);
        break;
      }
      default:
        break;
    }
}

void
TxnState::finish(Tick now,
                 const std::function<void(const Change &)> &onClose)
{
    for (size_t cpu = 0; cpu < cpus_.size(); ++cpu) {
        change_ = Change{};
        change_.tick = now;
        if (close(static_cast<int>(cpu), now, Outcome::Unfinished))
            onClose(change_);
        std::vector<Deferral> &mine = cpus_[cpu].waiting;
        while (!mine.empty()) {
            change_ = Change{};
            change_.tick = now;
            closeDeferral(mine, mine.begin());
            onClose(change_);
        }
    }
}

void
TxnStateView::finish(Tick now)
{
    own_.finish(now, [this](const TxnState::Change &c) { apply(c); });
}

} // namespace tlr
