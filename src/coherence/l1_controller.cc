#include "coherence/l1_controller.hh"

#include "sim/logging.hh"

namespace tlr
{

const char *
abortReasonName(AbortReason r)
{
    switch (r) {
      case AbortReason::ConflictLost: return "conflict-lost";
      case AbortReason::SharedInvalidation: return "shared-invalidation";
      case AbortReason::ProbeLost: return "probe-lost";
      case AbortReason::PendingInvalidated: return "pending-invalidated";
      case AbortReason::ResourceVictimFull: return "victim-full";
      case AbortReason::ResourceWriteBuffer: return "write-buffer-full";
      case AbortReason::ResourceStructural: return "structural";
      case AbortReason::Unbufferable: return "unbufferable";
      case AbortReason::Preempted: return "preempted";
      case AbortReason::QuantumExpired: return "quantum-expired";
    }
    return "?";
}

L1Controller::L1Controller(EventQueue &eq, StatSet &stats, CpuId id,
                           L1Params params, Interconnect &net,
                           MemoryController &mem, SpecHooks &hooks)
    : eq_(eq), stats_(stats), id_(id), params_(params), net_(net),
      mem_(mem), hooks_(hooks), array_(params.sizeBytes, params.ways),
      victim_(params.victimEntries),
      hits_(stats.counter("l1_" + std::to_string(id), "hits")),
      misses_(stats.counter("l1_" + std::to_string(id), "misses")),
      upgrades_(stats.counter("l1_" + std::to_string(id), "upgrades")),
      defers_(stats.counter("l1_" + std::to_string(id), "defers")),
      relaxedDefers_(
          stats.counter("l1_" + std::to_string(id), "relaxedDefers")),
      probesSent_(stats.counter("l1_" + std::to_string(id), "probesSent")),
      writeBacksInit_(
          stats.counter("l1_" + std::to_string(id), "writeBacks")),
      victimInserts_(
          stats.counter("l1_" + std::to_string(id), "victimInserts"))
{
}

//
// ---- MSHR table ---------------------------------------------------------
//

L1Controller::Mshr &
L1Controller::MshrTable::insert(Addr line)
{
    if (free_.empty()) {
        chunks_.push_back(std::make_unique<Mshr[]>(chunkSlots));
        for (size_t i = chunkSlots; i-- > 0;)
            free_.push_back(&chunks_.back()[i]);
    }
    Mshr *m = free_.back();
    free_.pop_back();
    // Reset every field but keep the waiter storage.
    auto waiters = std::move(m->waiters);
    waiters.clear();
    *m = Mshr{};
    m->waiters = std::move(waiters);
    m->line = line;
    auto pos = byLine_.begin();
    while (pos != byLine_.end() && (*pos)->line < line)
        ++pos;
    byLine_.insert(pos, m);
    return *m;
}

void
L1Controller::MshrTable::unlink(const Mshr &m)
{
    for (auto it = byLine_.begin(); it != byLine_.end(); ++it) {
        if (*it == &m) {
            byLine_.erase(it);
            return;
        }
    }
}

//
// ---- lookup / replacement ---------------------------------------------
//

CacheLine *
L1Controller::findLine(Addr line_addr)
{
    if (CacheLine *l = array_.find(line_addr))
        return l;
    if (CacheLine *v = victim_.find(line_addr)) {
        // Lazy promotion: move back only if a way is free, avoiding an
        // eviction cascade; otherwise operate on the line in place.
        CacheLine *slot = array_.allocateSlot(line_addr);
        if (slot && !isValidState(slot->state)) {
            *slot = *v;
            array_.syncTag(*slot);
            victim_.erase(line_addr);
            return slot;
        }
        return v;
    }
    return nullptr;
}

const CacheLine *
L1Controller::findLineConst(Addr line_addr) const
{
    return const_cast<L1Controller *>(this)->findLine(line_addr);
}

bool
L1Controller::holdsLineState(Addr line) const
{
    // Exact presence test for the broadcast snoop filter: snoop() can
    // only act when an MSHR is outstanding for the line or a valid
    // copy sits in the array or victim cache. Deliberately NOT
    // findLine()/findLineConst() — those perform lazy victim
    // promotion, and this predicate must be side-effect free: a
    // filtered snoop has to leave the cache exactly as it found it.
    const Addr la = lineAlign(line);
    if (mshrs_.find(la))
        return true;
    if (static_cast<const CacheArray &>(array_).find(la))
        return true;
    return static_cast<const VictimCache &>(victim_).find(la) != nullptr;
}

bool
L1Controller::evictLine(CacheLine &line)
{
    if (line.inTransaction() && hooks_.specActive()) {
        CacheLine copy = line;
        if (victim_.insert(copy)) {
            ++victimInserts_;
            line.state = CohState::Invalid;
            line.clearAccess();
            array_.syncTag(line);
            return true;
        }
        // Victim cache full of transactional lines: the resource
        // guarantee of paper Section 3.3 is exceeded; fall back.
        hooks_.resourceAbort(line.addr, AbortReason::ResourceVictimFull);
        // Access bits are now cleared; fall through to a normal evict.
    }
    if (isDirtyState(line.state)) {
        mem_.writeBack(line.addr, line.data);
        net_.submit({ReqType::WriteBack, line.addr, id_, Timestamp{}, 0});
        ++writeBacksInit_;
    }
    clearLinkIf(line.addr);
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::LineInval,
                     id_, line.addr);
    line.invalidate();
    array_.syncTag(line);
    return true;
}

void
L1Controller::dropLine(CacheLine &line)
{
    const Addr la = line.addr;
    clearLinkIf(la);
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::LineInval, id_,
                     la);
    line.invalidate();
    array_.syncTag(line);
    victim_.erase(la);
}

CacheLine *
L1Controller::installLine(Addr line_addr, const LineData &data,
                          CohState state)
{
    CacheLine *slot = array_.allocateSlot(line_addr);
    if (!slot) {
        if (hooks_.specActive()) {
            hooks_.resourceAbort(line_addr,
                                 AbortReason::ResourceStructural);
            slot = array_.allocateSlot(line_addr);
        }
        if (!slot)
            panic("l1 %d: no allocatable way for line %#llx", id_,
                  static_cast<unsigned long long>(line_addr));
    }
    if (isValidState(slot->state))
        evictLine(*slot);
    slot->addr = line_addr;
    slot->state = state;
    slot->data = data;
    slot->clearAccess();
    slot->pinned = false;
    array_.syncTag(*slot);
    array_.touch(*slot, eq_.now());
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::LineInstall,
                     id_, line_addr,
                     static_cast<std::uint64_t>(state));
    return slot;
}

//
// ---- engine-facing request path ---------------------------------------
//

void
L1Controller::respond(const CacheOp &op, std::uint64_t value)
{
    eq_.scheduleIn(params_.hitLatency,
                   [this, op, value] { hooks_.cacheOpDone(op, value); },
                   EventPrio::DataResponse);
}

template <class Fn>
bool
L1Controller::anyHeldOff(const Timestamp &mine, Fn &&fn) const
{
    for (Mshr *m : mshrs_) {
        if (!m->holdsSpecOp())
            continue;
        for (const Waiter &w : m->waiters)
            if (w.deferred && w.ts.valid && w.ts.earlierThan(mine) &&
                fn(*m, w))
                return true;
    }
    return false;
}

bool
L1Controller::hasEarlierContender(Addr *line_out) const
{
    const Timestamp mine = hooks_.currentTs();
    auto found = [line_out](Addr la) {
        if (line_out)
            *line_out = la;
        return true;
    };
    for (const auto &d : deferred_)
        if (d.ts.valid && d.ts.earlierThan(mine))
            return found(d.line);
    if (anyHeldOff(mine, [&](const Mshr &m, const Waiter &) {
            return found(m.line);
        }))
        return true;
    for (const auto &[la, hint] : probeHints_) {
        if (!hint.valid || !hint.earlierThan(mine))
            continue;
        const CacheLine *l = findLineConst(la);
        if (l && isOwnerState(l->state) && l->inTransaction())
            return found(la);
        const Mshr *m = mshrs_.find(la);
        if (m && m->holdsSpecOp())
            return found(la);
    }
    return false;
}

void
L1Controller::forwardContenderProbes()
{
    // Push the priority of every held-off higher-priority contender
    // toward the data its chain is rooted at, so upstream holders
    // learn about it (paper Section 3.1.1).
    anyHeldOff(hooks_.currentTs(), [this](Mshr &m, const Waiter &w) {
        forwardProbe(m, w.ts);
        m.loseOnArrival = true;
        return false;
    });
}

void
L1Controller::forwardProbe(Mshr &m, const Timestamp &ts)
{
    if (m.markerFrom != invalidCpu) {
        net_.sendProbe(m.markerFrom, {m.line, ts, id_});
        ++probesSent_;
    } else if (!m.pendingProbe || ts.earlierThan(*m.pendingProbe)) {
        m.pendingProbe = ts;
    }
}

void
L1Controller::keepProbeHint(Addr line_addr, const Timestamp &ts)
{
    auto it = probeHints_.begin();
    while (it != probeHints_.end() && it->first < line_addr)
        ++it;
    if (it == probeHints_.end() || it->first != line_addr)
        probeHints_.insert(it, {line_addr, ts});
    else if (ts.earlierThan(it->second))
        it->second = ts;
    maybeArmYield();
}

bool
L1Controller::detectTwoCycle(Addr *line_out) const
{
    // A locally certain deadlock: an earlier-timestamp contender C is
    // queued behind us (so C waits on us) while our upstream neighbor
    // for some outstanding transactional miss is C itself (so we wait
    // on C). Neither can commit; no timer needed.
    const Timestamp mine = hooks_.currentTs();
    auto waitsOnUs = [&](CpuId c) {
        for (const auto &d : deferred_)
            if (d.cpu == c && d.ts.valid && d.ts.earlierThan(mine))
                return true;
        return anyHeldOff(mine, [c](const Mshr &, const Waiter &w) {
            return w.cpu == c;
        });
    };
    for (const Mshr *m : mshrs_) {
        if (!m->holdsSpecOp())
            continue;
        if (m->markerFrom != invalidCpu && waitsOnUs(m->markerFrom)) {
            if (line_out)
                *line_out = m->line;
            return true;
        }
    }
    return false;
}

void
L1Controller::maybeArmYield()
{
    if (!hooks_.tlrActive() || hooks_.strictTimestamps())
        return;
    Addr cycleLine = 0;
    if (hooks_.specActive() && outstandingSpecMisses() > 0 &&
        detectTwoCycle(&cycleLine)) {
        if (TLR_TRACE_ARMED(trace_))
            trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohYield,
                         id_, cycleLine);
        forwardContenderProbes();
        hooks_.conflictAbort(cycleLine, AbortReason::ConflictLost);
        return;
    }
    if (yieldArmed_)
        return;
    if (outstandingSpecMisses() == 0)
        return; // not waiting for anything: we will commit and service
    if (!hasEarlierContender())
        return;
    yieldArmed_ = true;
    const std::uint64_t gen = ++yieldGen_;
    eq_.scheduleIn(params_.yieldTimeout,
                   [this, gen] { yieldFire(gen); });
}

void
L1Controller::yieldFire(std::uint64_t gen)
{
    if (gen != yieldGen_ || !yieldArmed_)
        return;
    yieldArmed_ = false;
    if (!hooks_.specActive() || !hooks_.tlrActive())
        return;
    if (outstandingSpecMisses() == 0)
        return; // the wait resolved: commit is imminent
    Addr line = 0;
    if (!hasEarlierContender(&line)) {
        maybeArmYield(); // still waiting; re-arm if one appears
        return;
    }
    // We have both waited for yieldTimeout and held off a
    // higher-priority contender the whole time: a cyclic wait is the
    // only schedule that cannot drain, so enforce timestamp order.
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohYield, id_,
                     line);
    forwardContenderProbes();
    hooks_.conflictAbort(line, AbortReason::ConflictLost);
}

bool
L1Controller::yieldBeforeWaiting(Addr la, bool spec)
{
    if (!spec || !hooks_.tlrActive())
        return false;
    if (hooks_.strictTimestamps()) {
        // Strict mode: enforce timestamp order the moment a new wait
        // would begin while a higher-priority contender is held off
        // (paper Section 3.2).
        if (hasEarlierContender()) {
            if (TLR_TRACE_ARMED(trace_))
                trace_->emit(eq_.now(), TraceComp::L1,
                             TraceEvent::CohYield, id_, la);
            forwardContenderProbes();
            hooks_.conflictAbort(la, AbortReason::ConflictLost);
            return true;
        }
        return false;
    }
    // Relaxed mode: allow the wait; the deadlock-recovery timer
    // enforces timestamp order only if the wait persists.
    (void)la;
    return false;
}

void
L1Controller::missIssue(const CacheOp &op, ReqType type)
{
    Addr la = lineAlign(op.addr);
    if (yieldBeforeWaiting(la, op.spec))
        return;
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohMiss, id_,
                     la, static_cast<std::uint64_t>(type),
                     op.spec ? 1 : 0);
    ++misses_;
    if (type == ReqType::Upgrade)
        ++upgrades_;
    Mshr &m = mshrs_.insert(la);
    m.type = type;
    m.spec = op.spec;
    m.op = op;
    Timestamp ts = op.spec ? hooks_.currentTs() : Timestamp{};
    net_.submit({type, la, id_, ts, 0});
    if (op.spec)
        maybeArmYield();
}

void
L1Controller::access(const CacheOp &op)
{
    Addr la = lineAlign(op.addr);
    if (Mshr *m = mshrs_.find(la)) {
        // A restart re-issued an access to a line whose miss (from the
        // squashed attempt) is still in flight: complete it afterwards.
        // Queueing is a wait, so the same yield rules apply.
        if (yieldBeforeWaiting(la, op.spec))
            return;
        if (m->queuedOp)
            panic("l1 %d: two queued ops for line %#llx", id_,
                  static_cast<unsigned long long>(la));
        m->queuedOp = op;
        return;
    }

    CacheLine *l = findLine(la);
    if (op.kind == CacheOp::Kind::StoreCond && !linkValid(op.addr)) {
        respond(op, 0);
        return;
    }
    const bool load = op.kind == CacheOp::Kind::LoadShared ||
                      op.kind == CacheOp::Kind::LoadExclusive;
    if (l && (load || isWritableState(l->state))) {
        ++hits_;
        array_.touch(*l, eq_.now());
        perform(op, l, l->data);
        return;
    }
    if (load)
        missIssue(op, op.kind == CacheOp::Kind::LoadExclusive
                          ? ReqType::GetX
                          : ReqType::GetS);
    else
        missIssue(op, l ? ReqType::Upgrade : ReqType::GetX);
}

void
L1Controller::perform(const CacheOp &op, CacheLine *line,
                      const LineData &data)
{
    using Kind = CacheOp::Kind;
    const unsigned wi = wordIndex(op.addr);
    const std::uint64_t old = line ? line->data[wi] : data[wi];
    const bool load =
        op.kind == Kind::LoadShared || op.kind == Kind::LoadExclusive;
    const bool writable = line && isWritableState(line->state);
    if (op.kind == Kind::StoreCond && !(writable && linkValid(op.addr))) {
        respond(op, 0); // the link went while the SC missed
        return;
    }
    if (!load && !writable)
        panic("l1 %d: write fill without write permission for %#llx", id_,
              static_cast<unsigned long long>(op.addr));

    if (load || op.kind == Kind::EnsureExclusive) {
        if (op.kind == Kind::EnsureExclusive) {
            markWrite(*line);
        } else if (line) {
            if (op.spec)
                markRead(*line);
            if (op.isLl) {
                linkValid_ = true;
                linkLine_ = lineAlign(op.addr);
                linkAddr_ = op.addr;
            }
        }
        // EnsureExclusive returns the current word too, so speculative
        // atomics can read-modify-write through the write buffer.
        if (op.spec && TLR_TRACE_ARMED(trace_))
            trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::TxnRead,
                         id_, op.addr, old);
        respond(op, old);
        return;
    }

    const bool rmw = op.kind == Kind::AtomicSwap ||
                     op.kind == Kind::AtomicCas ||
                     op.kind == Kind::AtomicAdd;
    if (op.kind != Kind::AtomicCas || old == op.expected) {
        line->data[wi] =
            op.kind == Kind::AtomicAdd ? old + op.data : op.data;
        line->state = CohState::Modified;
        clearLinkIf(lineAlign(op.addr));
    }
    if (!op.spec && (!rmw || line->data[wi] != old) &&
        TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::MemWrite, id_,
                     op.addr, line->data[wi]);
    respond(op, rmw ? old : op.kind == Kind::StoreCond ? 1 : 0);
}

void
L1Controller::reissueQueued(const Mshr &m)
{
    if (!m.queuedOp)
        return;
    CacheOp q = *m.queuedOp;
    eq_.scheduleIn(1, [this, q] { access(q); });
}

//
// ---- snooping ----------------------------------------------------------
//

bool
L1Controller::conflicts(const BusRequest &req, bool read_set,
                        bool write_set) const
{
    if (req.type == ReqType::GetS)
        return write_set;
    return read_set || write_set; // GetX / Upgrade
}

bool
L1Controller::winsConflict(const Timestamp &incoming) const
{
    if (!hooks_.tlrActive())
        return false; // SLE alone cannot defer: it always restarts
    if (!incoming.valid)
        return hooks_.deferUntimestamped();
    // Win unless the incoming timestamp is strictly earlier. Equality
    // means the request is our own (timestamps are globally unique):
    // a probe carrying our priority must never restart us.
    return !incoming.earlierThan(hooks_.currentTs());
}

std::uint64_t
L1Controller::deferredDepth() const
{
    std::uint64_t n = deferred_.size();
    for (const Mshr *m : mshrs_) {
        for (const Waiter &w : m->waiters)
            if (w.deferred)
                ++n;
    }
    return n;
}

bool
L1Controller::deferredExclusive(Addr line_addr) const
{
    for (const auto &d : deferred_)
        if (d.line == line_addr && d.type != ReqType::GetS)
            return true;
    return false;
}

void
L1Controller::recordDefer(Addr line_addr, const BusRequest &req,
                          bool relaxed)
{
    ++defers_;
    if (!TLR_TRACE_ARMED(trace_))
        return;
    trace_->emit(eq_.now(), TraceComp::L1,
                 relaxed ? TraceEvent::CohRelaxedDefer : TraceEvent::CohDefer,
                 id_, line_addr, req.requester,
                 static_cast<std::uint64_t>(req.type), req.ts.clock,
                 packTsMeta(req.ts));
    trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohDeferDepth, id_, 0,
                 deferredDepth());
}

void
L1Controller::traceLose(Addr line_addr, const Timestamp &winner)
{
    if (!TLR_TRACE_ARMED(trace_))
        return;
    const Timestamp own = hooks_.currentTs();
    trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohLose, id_,
                 line_addr, winner.clock, packTsMeta(winner), own.clock,
                 packTsMeta(own));
}

void
L1Controller::handleChainSnoop(Mshr &mshr, const BusRequest &req)
{
    Waiter w{req.requester, req.type, req.ts, false};
    // Tell the new pending owner who its upstream neighbor is so it
    // can forward probes toward the data (paper Section 3.1.1).
    net_.sendMarker(req.requester, {mshr.line, id_});

    // Propagate the request's priority toward the data holder at the
    // head of the chain ("conflicting requests must propagate along
    // the coherence chain towards the root"). The holder compares
    // timestamps itself: a winner ignores the probe, a loser releases
    // the block. We cannot make that decision here — the holder may
    // be a multi-block transaction that has to yield even when we
    // would not.
    if (req.ts.valid)
        forwardProbe(mshr, req.ts);

    bool writeIntent =
        mshr.op && (mshr.op->kind == CacheOp::Kind::EnsureExclusive ||
                    mshr.op->kind == CacheOp::Kind::Store ||
                    mshr.op->kind == CacheOp::Kind::StoreCond ||
                    mshr.op->kind == CacheOp::Kind::AtomicSwap ||
                    mshr.op->kind == CacheOp::Kind::AtomicCas);
    bool readIntent = mshr.op && !writeIntent;

    bool relaxed = false;
    if (mshr.spec && hooks_.specActive() &&
        conflicts(req, readIntent, writeIntent)) {
        hooks_.noteConflictTs(req.ts);
        bool win = winsConflict(req.ts);
        if (!win && hooks_.tlrActive() && !hooks_.strictTimestamps() &&
            outstandingSpecMisses() == 1 && deferred_.empty()) {
            // Paper Section 3.2: our transaction is involved with a
            // single contended block (this one), so we are not a
            // deadlock risk ourselves and may stay queued; the probe
            // sent above carries the contender's priority to the
            // data holder, which yields if it must.
            win = true;
            relaxed = true;
            ++relaxedDefers_;
        }
        if (!win && !hooks_.strictTimestamps() && req.ts.valid) {
            // Higher-priority contender behind us in the chain. The
            // probe above already carries its priority upstream; keep
            // it queued and let the deadlock-recovery timer enforce
            // timestamp order only if this wait persists — in an
            // order-consistent queue we finish first and service it.
            win = true;
            relaxed = true;
        }
        if (win) {
            // The requester waits until we commit.
            w.deferred = true;
        } else {
            // Strict mode / un-deferrable: step aside immediately.
            if (hooks_.tlrActive())
                traceLose(mshr.line, req.ts);
            mshr.loseOnArrival = true;
            hooks_.conflictAbort(mshr.line, AbortReason::ConflictLost);
        }
    }

    mshr.waiters.push_back(w);
    if (req.type != ReqType::GetS)
        mshr.ownershipPassed = true;
    if (w.deferred) {
        recordDefer(mshr.line, req, relaxed);
        if (req.ts.valid && req.ts.earlierThan(hooks_.currentTs()))
            maybeArmYield();
    }
}

void
L1Controller::handleOwnerSnoop(CacheLine &line, const BusRequest &req,
                               SnoopReply &reply)
{
    Addr la = req.line;
    if (hooks_.specActive() &&
        conflicts(req, line.accessRead, line.accessWrite)) {
        hooks_.noteConflictTs(req.ts);
        // Only an exclusively owned block (M/E) is retainable (paper
        // Fig. 3). An Owned copy implies we may ourselves need an
        // upgrade for it, so holding requests hostage from O could
        // invert the protocol order: lose the conflict instead.
        bool win = isWritableState(line.state) && winsConflict(req.ts);
        bool relaxed = false;
        if (!win && isWritableState(line.state) && hooks_.tlrActive() &&
            !hooks_.strictTimestamps() && req.ts.valid) {
            // Relaxed mode: retain the block and queue even a
            // higher-priority request (paper Section 3.2 generalized).
            // If we are not waiting for anything we commit first and
            // service it; if we are, the deadlock-recovery timer
            // enforces timestamp order should the wait persist.
            win = true;
            relaxed = true;
            ++relaxedDefers_;
        }
        if (win) {
            deferred_.push_back({la, req.requester, req.type, req.ts});
            pin(line);
            recordDefer(la, req, relaxed);
            net_.sendMarker(req.requester, {la, id_});
            maybeArmYield();
            return; // owner=true already: requester waits on us
        }
        if (hooks_.tlrActive() && isWritableState(line.state))
            traceLose(la, req.ts);
        hooks_.conflictAbort(la, isWritableState(line.state)
                                     ? AbortReason::ConflictLost
                                     : AbortReason::SharedInvalidation);
        // Access bits are cleared now; service the request normally.
        // Note: `line` is still valid — aborting never invalidates it.
    }
    grant(line, req.requester, req.type);
    reply.sharer = req.type == ReqType::GetS;
}

void
L1Controller::grant(CacheLine &line, CpuId to, ReqType type)
{
    DataMsg msg;
    msg.line = line.addr;
    msg.data = line.data;
    msg.from = id_;
    if (type == ReqType::GetS) {
        msg.grant = Grant::SharedData;
        if (line.state == CohState::Modified)
            line.state = CohState::Owned;
        else if (line.state == CohState::Exclusive)
            line.state = CohState::Shared;
        if (TLR_TRACE_ARMED(trace_))
            trace_->emit(eq_.now(), TraceComp::L1,
                         TraceEvent::LineDowngrade, id_, line.addr,
                         static_cast<std::uint64_t>(line.state));
    } else {
        msg.grant = Grant::ModifiedData;
        dropLine(line);
    }
    net_.sendData(to, msg);
}

SnoopReply
L1Controller::snoop(const BusRequest &req)
{
    SnoopReply reply;
    Addr la = req.line;

    Mshr *mp = mshrs_.find(la);
    if (mp && mp->ordered) {
        Mshr &m = *mp;
        if (m.isExclusive() && !m.ownershipPassed) {
            // We are the protocol owner even though data has not
            // arrived: record the request in the ownership chain.
            reply.owner = true;
            handleChainSnoop(m, req);
            return reply;
        }
        if (!m.isExclusive()) {
            if (req.type == ReqType::GetS) {
                // Another reader: we will hold a Shared copy, so it
                // must not be granted (nor keep) Exclusive.
                reply.sharer = true;
                m.downgradeToShared = true;
                return reply;
            }
            // Pending read overtaken by a write: the arriving data may
            // be used once but must not be cached.
            {
                m.invalidateOnArrival = true;
                if (m.spec && m.op && hooks_.specActive()) {
                    hooks_.noteConflictTs(req.ts);
                    hooks_.conflictAbort(la,
                                         AbortReason::PendingInvalidated);
                }
            }
            return reply;
        }
        return reply; // exclusive MSHR, ownership already passed on
    }

    CacheLine *l = findLine(la);
    if (!l)
        return reply;

    if (l->state == CohState::Shared) {
        reply.sharer = true;
        if (req.type == ReqType::GetS)
            return reply;
    } else if (!isOwnerState(l->state) || deferredExclusive(la)) {
        // Nothing held; or ownership was already promised to a
        // deferred GetX, and new requests are recorded at that pending
        // owner instead.
        return reply;
    } else if (req.type != ReqType::Upgrade) {
        reply.owner = true;
        handleOwnerSnoop(*l, req, reply);
        return reply;
    } else if (isWritableState(l->state)) {
        // A valid upgrade implies the requester holds Shared, so no
        // Modified/Exclusive copy can exist anywhere.
        panic("l1 %d: valid upgrade snooped on %s line %#llx", id_,
              cohStateName(l->state), static_cast<unsigned long long>(la));
    }
    // A writer takes our Shared copy, or our Owned one under an
    // upgrade: the upgrader holds the same data, so no data response
    // exists to withhold and the request can never be deferred (paper
    // Section 3.1.2).
    if (l->inTransaction() && hooks_.specActive()) {
        hooks_.noteConflictTs(req.ts);
        hooks_.conflictAbort(la, AbortReason::SharedInvalidation);
    }
    dropLine(*l);
    return reply;
}

void
L1Controller::ownRequestOrdered(const BusRequest &req)
{
    Mshr *mp = mshrs_.find(req.line);
    if (!mp)
        panic("l1 %d: ordered request without MSHR line=%#llx", id_,
              static_cast<unsigned long long>(req.line));
    Mshr &m = *mp;

    if (req.type == ReqType::Upgrade) {
        CacheLine *l = findLine(req.line);
        if (l && (l->state == CohState::Shared ||
                  l->state == CohState::Owned)) {
            // Still valid: upgrade completes instantly, no data needed.
            // (An Owned copy has the authoritative data already; the
            // snoop invalidated every other sharer.)
            l->state = CohState::Modified;
            if (TLR_TRACE_ARMED(trace_))
                trace_->emit(eq_.now(), TraceComp::L1,
                             TraceEvent::LineUpgrade, id_, req.line);
            // Retired before completing: a nested access to the line
            // misses afresh.
            mshrs_.unlink(m);
            if (m.op)
                perform(*m.op, l, l->data);
            if (m.op && m.op->spec)
                hooks_.specMshrDrained(req.line);
            reissueQueued(m);
            mshrs_.release(m);
            return;
        }
        // Invalidated while the upgrade was in flight: reissue as GetX.
        // A spec-originated miss keeps its transactional identity even
        // if the attempt restarted meanwhile (the instance timestamp
        // is retained), so the reissue carries the current timestamp.
        m.type = ReqType::GetX;
        m.ordered = false;
        Timestamp ts = m.spec ? hooks_.currentTs() : Timestamp{};
        net_.submit({ReqType::GetX, req.line, id_, ts, 0});
        return;
    }

    m.ordered = true;
}

void
L1Controller::dataResponse(const DataMsg &msg)
{
    Mshr *mp = mshrs_.find(msg.line);
    if (!mp)
        panic("l1 %d: data without MSHR line=%#llx", id_,
              static_cast<unsigned long long>(msg.line));
    // Retired before completing: a nested access to the line misses
    // afresh. The slot is released at the end.
    Mshr &m = *mp;
    mshrs_.unlink(m);

    CacheLine *l = nullptr;
    if (msg.grant == Grant::DontInstall || m.invalidateOnArrival) {
        // Use the data for the pending op only (ordered before the
        // overtaking write), do not cache it. An op dropped by an abort
        // leaves nothing to do.
        if (m.op)
            perform(*m.op, nullptr, msg.data);
    } else {
        CohState st = CohState::Shared;
        if (msg.grant == Grant::ExclusiveData && !m.downgradeToShared)
            st = CohState::Exclusive;
        else if (msg.grant == Grant::ModifiedData)
            st = CohState::Modified;
        l = installLine(msg.line, msg.data, st);
        if (m.op && !m.loseOnArrival)
            perform(*m.op, l, msg.data);
    }

    if (m.op && m.op->spec)
        hooks_.specMshrDrained(msg.line);

    // Service or defer the requests recorded while we were the pending
    // owner. `m.loseOnArrival` or a completed abort forces servicing.
    // The disposition is all-or-nothing: servicing an early GetS while
    // holding a later GetX hostage would downgrade us to Owned, which
    // is not a retainable state — the per-line FIFO order is preserved
    // either way because the deferred queue drains in order.
    bool keepDeferring = hooks_.specActive() && m.spec && m.op &&
                         !m.loseOnArrival && l &&
                         isWritableState(l->state) &&
                         (l->accessRead || l->accessWrite);
    for (const Waiter &w : m.waiters) {
        if (keepDeferring) {
            deferred_.push_back({msg.line, w.cpu, w.type, w.ts});
            pin(*l);
        } else {
            serviceWaiter(w, msg.line);
        }
    }
    if (!m.waiters.empty() && TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohDeferDepth,
                     id_, 0, deferredDepth());

    reissueQueued(m);
    mshrs_.release(m);
    if (hooks_.specActive())
        maybeArmYield();
}

void
L1Controller::serviceWaiter(const Waiter &w, Addr line_addr,
                            ServiceCause cause)
{
    CacheLine *l = findLine(line_addr);
    if (!l || !isOwnerState(l->state))
        panic("l1 %d: servicing waiter for line %#llx without owned data",
              id_, static_cast<unsigned long long>(line_addr));
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohService,
                     id_, line_addr,
                     static_cast<std::uint64_t>(w.cpu),
                     static_cast<std::uint64_t>(cause));
    grant(*l, w.cpu, w.type);
}

//
// ---- TLR control messages ----------------------------------------------
//

void
L1Controller::marker(const MarkerMsg &msg)
{
    Mshr *mp = mshrs_.find(msg.line);
    if (!mp)
        return; // the miss already completed; marker is stale
    Mshr &m = *mp;
    m.markerFrom = msg.from;
    if (m.pendingProbe) {
        net_.sendProbe(m.markerFrom, {msg.line, *m.pendingProbe, id_});
        ++probesSent_;
        m.pendingProbe.reset();
    }
    // Knowing the upstream neighbor may complete a two-party cycle
    // (we hold its higher-priority request while waiting on it).
    if (hooks_.specActive())
        maybeArmYield();
}

void
L1Controller::probe(const ProbeMsg &msg)
{
    Addr la = msg.line;

    // Case 1: we hold the line inside our transaction — either
    // already deferring requests for it, or the probe raced ahead of
    // the conflicting request itself.
    bool holdsDeferred = false;
    for (const auto &d : deferred_)
        if (d.line == la)
            holdsDeferred = true;
    if (CacheLine *l = findLine(la))
        holdsDeferred |= isOwnerState(l->state) && l->inTransaction();
    if (holdsDeferred && hooks_.specActive() && hooks_.tlrActive()) {
        hooks_.noteConflictTs(msg.ts);
        if (!winsConflict(msg.ts)) {
            if (!hooks_.strictTimestamps()) {
                // Remember the contender's priority: if our wait (or
                // a future one) persists, the recovery timer enforces
                // timestamp order; if we commit first, servicing the
                // deferred queue satisfies the contender anyway.
                keepProbeHint(la, msg.ts);
                return;
            }
            traceLose(la, msg.ts);
            hooks_.conflictAbort(la, AbortReason::ProbeLost);
        }
        return;
    }

    // Case 2: pending owner in the chain: forward upstream.
    Mshr *mp = mshrs_.find(la);
    if (mp && mp->ordered && mp->isExclusive()) {
        Mshr &m = *mp;
        forwardProbe(m, msg.ts);
        if (m.spec && m.op && hooks_.specActive() &&
            !winsConflict(msg.ts)) {
            hooks_.noteConflictTs(msg.ts);
            if (hooks_.tlrActive() && !hooks_.strictTimestamps()) {
                // Remember the contender's priority for the recovery
                // timer; it was already forwarded up the chain above.
                keepProbeHint(la, msg.ts);
                return;
            }
            traceLose(la, msg.ts);
            m.loseOnArrival = true;
            hooks_.conflictAbort(la, AbortReason::ProbeLost);
        }
        return;
    }
    // Otherwise stale: the chain already drained.
}

//
// ---- transaction boundary operations -----------------------------------
//

void
L1Controller::markRead(CacheLine &line)
{
    if (!line.inTransaction())
        txnLines_.push_back(line.addr);
    line.accessRead = true;
}

void
L1Controller::markWrite(CacheLine &line)
{
    if (!line.inTransaction())
        txnLines_.push_back(line.addr);
    line.accessWrite = true;
}

void
L1Controller::pin(CacheLine &line)
{
    if (!line.pinned)
        pinnedLines_.push_back(line.addr);
    line.pinned = true;
}

/** Apply @p fn to the array and victim copies of a line, by address.
 *  Deliberately the pure finds, not findLine(): lazy promotion would
 *  move victim lines, and a boundary must leave the cache's layout
 *  exactly as it found it. */
template <class Fn>
void
L1Controller::forEachCopy(Addr line_addr, Fn &&fn)
{
    if (CacheLine *l = array_.find(line_addr))
        fn(*l);
    if (CacheLine *v = victim_.find(line_addr))
        fn(*v);
}

void
L1Controller::checkBoundaryClear() const
{
#ifndef NDEBUG
    // Debug builds only: the footprint lists must have covered every
    // line the transaction marked or pinned.
    auto leaked = [](const CacheLine &l) {
        return l.inTransaction() || l.pinned;
    };
    const CacheLine *l = array_.firstValid(leaked);
    for (const CacheLine &v : victim_.entries())
        if (!l && isValidState(v.state) && leaked(v))
            l = &v;
    if (l)
        panic("l1 %d: line %#llx keeps r=%d w=%d pinned=%d past a "
              "transaction boundary",
              id_, static_cast<unsigned long long>(l->addr),
              l->accessRead ? 1 : 0, l->accessWrite ? 1 : 0,
              l->pinned ? 1 : 0);
#endif
}

void
L1Controller::commitTransaction(const WriteBuffer &wb)
{
    for (const WriteBuffer::Entry &e : wb.entries()) {
        CacheLine *l = findLine(e.line);
        if (!l || !isWritableState(l->state))
            panic("l1 %d: commit without writable line %#llx", id_,
                  static_cast<unsigned long long>(e.line));
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if (e.mask & (1u << w)) {
                l->data[w] = e.words[w];
                if (TLR_TRACE_ARMED(trace_))
                    trace_->emit(eq_.now(), TraceComp::L1,
                                 TraceEvent::TxnWrite, id_,
                                 e.line + 8 * w, e.words[w]);
            }
        l->state = CohState::Modified;
    }
    endTransaction(/*at_commit=*/true);
}

void
L1Controller::abortTransaction()
{
    for (Mshr *m : mshrs_) {
        if (m->op && m->op->spec)
            m->op.reset();
        if (m->queuedOp && m->queuedOp->spec)
            m->queuedOp.reset();
    }
    endTransaction(/*at_commit=*/false);
}

void
L1Controller::endTransaction(bool at_commit)
{
    for (Addr la : txnLines_)
        forEachCopy(la, [](CacheLine &l) { l.clearAccess(); });
    txnLines_.clear();
    if (!deferred_.empty() && TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohDeferDrain,
                     id_, 0, deferred_.size(), at_commit ? 1 : 0);
    const bool drained = !deferred_.empty();
    while (!deferred_.empty()) {
        DeferredReq d = deferred_.front();
        deferred_.pop_front();
        serviceWaiter({d.cpu, d.type, d.ts, false}, d.line,
                      at_commit ? ServiceCause::CommitDrain
                                : ServiceCause::AbortDrain);
    }
    if (drained && TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::L1, TraceEvent::CohDeferDepth,
                     id_, 0, deferredDepth());
    probeHints_.clear();
    yieldArmed_ = false;
    ++yieldGen_;
    for (Addr la : pinnedLines_)
        forEachCopy(la, [](CacheLine &l) { l.pinned = false; });
    pinnedLines_.clear();
    checkBoundaryClear();
}

//
// ---- queries ------------------------------------------------------------
//

unsigned
L1Controller::outstandingSpecMisses() const
{
    unsigned n = 0;
    for (const Mshr *m : mshrs_)
        if (m->holdsSpecOp())
            ++n;
    return n;
}

bool
L1Controller::deferredHasEarlierThan(const Timestamp &ts) const
{
    for (const auto &d : deferred_) {
        if (!d.ts.valid)
            continue; // un-timestamped requests have lowest priority
        if (d.ts.earlierThan(ts))
            return true;
    }
    return false;
}

bool
L1Controller::upgradeValid(Addr line) const
{
    const CacheLine *l = findLineConst(line);
    return l && (l->state == CohState::Shared ||
                 l->state == CohState::Owned);
}

bool
L1Controller::linkValid(Addr addr) const
{
    return linkValid_ && linkLine_ == lineAlign(addr);
}

void
L1Controller::markTransactionalRead(Addr addr)
{
    CacheLine *l = findLine(lineAlign(addr));
    if (!l)
        panic("l1 %d: markTransactionalRead on absent line %#llx", id_,
              static_cast<unsigned long long>(addr));
    markRead(*l);
}

void
L1Controller::markTransactionalWrite(Addr addr)
{
    CacheLine *l = findLine(lineAlign(addr));
    if (!l || !isWritableState(l->state))
        panic("l1 %d: markTransactionalWrite needs a writable line "
              "%#llx",
              id_, static_cast<unsigned long long>(addr));
    markWrite(*l);
}

void
L1Controller::clearLinkIf(Addr line_addr)
{
    if (linkValid_ && linkLine_ == line_addr)
        linkValid_ = false;
}

CohState
L1Controller::lineState(Addr addr) const
{
    const CacheLine *l = findLineConst(lineAlign(addr));
    return l ? l->state : CohState::Invalid;
}

std::string
L1Controller::debugState() const
{
    std::string out;
    for (const Mshr *mp : mshrs_) {
        const Mshr &m = *mp;
        out += strfmt("  l1 %d MSHR line=%#llx %s ordered=%d spec=%d "
                      "op=%d queued=%d lose=%d ownPassed=%d marker=%d "
                      "waiters=[",
                      id_, static_cast<unsigned long long>(m.line),
                      reqTypeName(m.type), m.ordered ? 1 : 0,
                      m.spec ? 1 : 0, m.op ? 1 : 0, m.queuedOp ? 1 : 0,
                      m.loseOnArrival ? 1 : 0, m.ownershipPassed ? 1 : 0,
                      m.markerFrom);
        for (const Waiter &w : m.waiters)
            out += strfmt("%d(%s,%s,def=%d) ", w.cpu,
                          reqTypeName(w.type), w.ts.str().c_str(),
                          w.deferred ? 1 : 0);
        out += "]\n";
    }
    for (const auto &d : deferred_)
        out += strfmt("  l1 %d DEFERRED line=%#llx cpu=%d %s %s\n", id_,
                      static_cast<unsigned long long>(d.line), d.cpu,
                      reqTypeName(d.type), d.ts.str().c_str());
    return out;
}

std::uint64_t
L1Controller::peekWord(Addr addr) const
{
    const CacheLine *l = findLineConst(lineAlign(addr));
    return l ? l->data[wordIndex(addr)] : 0;
}

const CacheLine *
L1Controller::peekLine(Addr addr, bool *in_victim) const
{
    const Addr la = lineAlign(addr);
    const CacheLine *l = array_.find(la);
    if (in_victim)
        *in_victim = !l && victim_.find(la);
    return l ? l : victim_.find(la);
}

} // namespace tlr
