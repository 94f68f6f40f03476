#include "core/spec_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tlr
{

SpecEngine::SpecEngine(EventQueue &eq, StatSet &stats, CpuId id,
                       SpecConfig cfg)
    : eq_(eq), stats_(stats), id_(id), cfg_(cfg),
      wb_(cfg.writeBufferLines), pairPred_(cfg.silentPairEntries),
      rmwPred_(cfg.rmwEntries, cfg.rmwWindow),
      elisions_(stats.counter("spec" + std::to_string(id), "elisions")),
      commits_(stats.counter("spec" + std::to_string(id), "commits")),
      restarts_(stats.counter("spec" + std::to_string(id), "restarts")),
      fallbacks_(stats.counter("spec" + std::to_string(id), "fallbacks")),
      exclEscalations_(
          stats.counter("spec" + std::to_string(id), "exclEscalations"))
{
}

void
SpecEngine::respondCore(std::uint64_t value, Tick delay)
{
    if (!pendingCore_)
        return;
    MemResponse r{value, pendingCore_->gen};
    pendingCore_.reset();
    if (delay == 0) {
        core_->memResponse(r);
    } else {
        eq_.scheduleIn(delay, [this, r] { core_->memResponse(r); },
                       EventPrio::DataResponse);
    }
}

void
SpecEngine::issueCacheOp(CacheOp::Kind kind, const CoreMemOp &op, bool spec,
                         bool is_ll)
{
    CacheOp co;
    co.kind = kind;
    co.addr = op.addr;
    co.data = op.data;
    co.expected = op.expected;
    co.spec = spec;
    co.isLl = is_ll;
    co.pc = op.pc;
    co.token = token_;
    l1_->access(co);
}

void
SpecEngine::request(const CoreMemOp &op)
{
    if (pendingCore_)
        panic("engine %d: overlapping core requests", id_);
    pendingCore_ = op;
    ++token_;

    switch (op.type) {
      case CoreMemOp::Type::Load:
      case CoreMemOp::Type::LoadLinked: {
        if (op.type == CoreMemOp::Type::LoadLinked)
            syncLines_.insert(lineAlign(op.addr));
        const bool syncLine = syncLines_.contains(lineAlign(op.addr));
        if (cfg_.enableRmwPredictor &&
            op.type == CoreMemOp::Type::Load && !syncLine)
            rmwPred_.observeLoad(op.pc, op.addr);
        if (mode_ == Mode::Spec) {
            // Program-order forwarding: an elided lock reads as held
            // locally even though it is globally free.
            for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
                if (it->lockAddr == op.addr) {
                    respondCore(it->heldVal, 1);
                    return;
                }
            }
            if (auto v = wb_.read(op.addr)) {
                respondCore(*v, 1);
                return;
            }
        }
        bool excl = cfg_.enableRmwPredictor && !syncLine &&
                    rmwPred_.predictExclusive(op.pc);
        if (mode_ == Mode::Spec && escalation_.contains(lineAlign(op.addr))) {
            // Repeated upgrade-induced violations: fetch exclusive up
            // front so the block can be retained (paper Section 3.1.2).
            excl = true;
            ++exclEscalations_;
        }
        issueCacheOp(excl ? CacheOp::Kind::LoadExclusive
                          : CacheOp::Kind::LoadShared,
                     op, mode_ == Mode::Spec,
                     op.type == CoreMemOp::Type::LoadLinked);
        return;
      }

      case CoreMemOp::Type::Store:
        if (cfg_.enableRmwPredictor &&
            !syncLines_.contains(lineAlign(op.addr)))
            rmwPred_.observeStore(op.addr);
        if (mode_ == Mode::Spec) {
            handleSpecStore(op);
            return;
        }
        issueCacheOp(CacheOp::Kind::Store, op, false, false);
        return;

      case CoreMemOp::Type::StoreCond:
        if (mode_ == Mode::Spec) {
            handleSpecStore(op);
            return;
        }
        if (tryElide(op))
            return;
        issueCacheOp(CacheOp::Kind::StoreCond, op, false, false);
        return;

      case CoreMemOp::Type::AtomicSwap:
      case CoreMemOp::Type::AtomicCas:
      case CoreMemOp::Type::AtomicAdd:
        // Atomic read-modify-writes are synchronization primitives:
        // never feed them to the RMW predictor.
        syncLines_.insert(lineAlign(op.addr));
        if (mode_ == Mode::Spec) {
            // Inside a transaction atomicity is already guaranteed:
            // read the current value (forwarded from the write buffer
            // or fetched exclusive) and buffer the new one. Completion
            // continues in cacheOpDone().
            if (auto v = wb_.read(op.addr)) {
                finishSpecAtomic(op, *v, false);
                return;
            }
            issueCacheOp(CacheOp::Kind::EnsureExclusive, op, true,
                         false);
            return;
        }
        issueCacheOp(op.type == CoreMemOp::Type::AtomicSwap
                         ? CacheOp::Kind::AtomicSwap
                         : op.type == CoreMemOp::Type::AtomicCas
                               ? CacheOp::Kind::AtomicCas
                               : CacheOp::Kind::AtomicAdd,
                     op, false, false);
        return;
    }
}

void
SpecEngine::finishSpecAtomic(const CoreMemOp &op, std::uint64_t old_value,
                             bool mark_line)
{
    bool doWrite = op.type != CoreMemOp::Type::AtomicCas ||
                   old_value == op.expected;
    std::uint64_t newValue = op.type == CoreMemOp::Type::AtomicAdd
                                 ? old_value + op.data
                                 : op.data;
    if (doWrite && !wb_.write(op.addr, newValue)) {
        doAbort(AbortReason::ResourceWriteBuffer, true, op.addr);
        return;
    }
    if (mark_line)
        l1_->markTransactionalWrite(op.addr);
    respondCore(old_value, mark_line ? 0 : 1);
}

bool
SpecEngine::tryElide(const CoreMemOp &op)
{
    if (!cfg_.enableSle)
        return false;
    if (op.pc == noElideOncePc_) {
        // One-shot suppression after a fallback: this SC must really
        // acquire the lock (exposing the elided write, paper Fig. 3).
        noElideOncePc_ = -1;
        return false;
    }
    if (!lastLl_.valid || lastLl_.addr != op.addr ||
        op.data == lastLl_.value)
        return false; // not the silent store-pair idiom
    if (!l1_->linkValid(op.addr))
        return false; // lock changed hands since the LL: do not elide
    if (!pairPred_.shouldElide(op.pc))
        return false;

    checkpoint_ = core_->takeCheckpoint();
    regionPc_ = op.pc;
    const bool newInstance = !instanceActive_;
    if (!instanceActive_) {
        // A new critical-section instance (not a restart): reset the
        // SLE retry budget and, under TLR, fix the timestamp, which is
        // then retained across restarts until a successful execution
        // (Section 2.1.2).
        instanceActive_ = true;
        retriesUsed_ = 0;
        lastConflictTs_ = Timestamp{};
        if (cfg_.enableTlr) {
            activeTs_ = Timestamp::make(clock_, id_);
            tsHeld_ = true;
            maxConflictClock_ = 0;
        }
        // Arm the scheduling-quantum bound for this instance.
        const std::uint64_t gen = ++instanceGen_;
        eq_.scheduleIn(cfg_.specMaxCycles, [this, gen] {
            if (gen != instanceGen_ || !instanceActive_)
                return;
            if (mode_ == Mode::Spec) {
                doAbort(AbortReason::QuantumExpired, true);
                return;
            }
            // Between restarts (e.g., spinning on a really-taken
            // lock): end the instance so the next elision attempt is
            // suppressed and executes for real.
            instanceActive_ = false;
            noElideOncePc_ = regionPc_;
            pairPred_.penalize(regionPc_);
            if (tsHeld_) {
                tsHeld_ = false;
                ++clock_;
            }
            if (TLR_TRACE_ARMED(trace_))
                trace_->emit(eq_.now(), TraceComp::Spec,
                             TraceEvent::TxnQuantumEnd, id_, 0);
        });
    }
    mode_ = Mode::Spec;
    committing_ = false;
    stack_.push_back({op.addr, lastLl_.value, op.data, op.pc});
    l1_->markTransactionalRead(op.addr);
    ++elisions_;
    if (TLR_TRACE_ARMED(trace_)) {
        const Timestamp ts = currentTs();
        trace_->emit(eq_.now(), TraceComp::Spec, TraceEvent::TxnElide,
                     id_, op.addr, lastLl_.value, ts.clock,
                     packTsMeta(ts), newInstance ? 1 : 0);
    }
    respondCore(1, 1);
    return true;
}

void
SpecEngine::handleSpecStore(const CoreMemOp &op)
{
    // Release detection: the second half of the silent store-pair.
    if (!stack_.empty() && op.type == CoreMemOp::Type::Store &&
        op.addr == stack_.back().lockAddr &&
        op.data == stack_.back().freeVal) {
        stack_.pop_back();
        if (stack_.empty())
            beginCommit();
        else
            respondCore(0, 1);
        return;
    }

    if (op.type == CoreMemOp::Type::StoreCond) {
        // Nested lock acquire inside the region.
        if (stack_.size() < cfg_.maxElisionDepth && lastLl_.valid &&
            lastLl_.addr == op.addr && op.data != lastLl_.value &&
            l1_->linkValid(op.addr) && pairPred_.shouldElide(op.pc)) {
            stack_.push_back({op.addr, lastLl_.value, op.data, op.pc});
            l1_->markTransactionalRead(op.addr);
            ++elisions_;
            if (TLR_TRACE_ARMED(trace_))
                trace_->emit(eq_.now(), TraceComp::Spec,
                             TraceEvent::TxnNest, id_, op.addr,
                             lastLl_.value);
            respondCore(1, 1);
            return;
        }
        // Elision resources exhausted (or not the idiom): treat the
        // inner lock as ordinary transactional data (paper Section 4).
        if (!l1_->linkValid(op.addr)) {
            respondCore(0, 1);
            return;
        }
    }

    if (!wb_.write(op.addr, op.data)) {
        doAbort(AbortReason::ResourceWriteBuffer, true, op.addr);
        return;
    }
    issueCacheOp(CacheOp::Kind::EnsureExclusive, op, true, false);
}

void
SpecEngine::beginCommit()
{
    committing_ = true;
    tryFinishCommit();
}

void
SpecEngine::tryFinishCommit()
{
    if (!committing_ || l1_->outstandingSpecMisses() > 0)
        return;
    const size_t commitLines = wb_.lineCount();
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Spec,
                     TraceEvent::TxnCommitStart, id_, 0, commitLines);
    l1_->commitTransaction(wb_);
    wb_.clear();
    mode_ = Mode::Inactive;
    committing_ = false;
    instanceActive_ = false;
    if (cfg_.enableTlr && tsHeld_) {
        // Monotonic clock update, kept loosely synchronized with every
        // conflicting contender seen (paper Section 2.1.2).
        clock_ = std::max(clock_ + 1, maxConflictClock_ + 1);
        tsHeld_ = false;
    }
    pairPred_.reward(regionPc_);
    escalation_.clear();
    ++commits_;
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Spec, TraceEvent::TxnCommit,
                     id_, 0, commitLines, clock_);
    respondCore(0, 1); // the elided release store completes
}

void
SpecEngine::doAbort(AbortReason reason, bool resource, Addr line_addr)
{
    if (mode_ != Mode::Spec)
        panic("engine %d: abort outside speculation (%s)", id_,
              abortReasonName(reason));
    ++restarts_;
    std::uint64_t *&abortCtr =
        abortCounters_[static_cast<std::size_t>(reason)];
    if (!abortCtr)
        abortCtr = &stats_.counter("spec" + std::to_string(id_),
                                   std::string("abort.") +
                                       abortReasonName(reason));
    ++*abortCtr;
    wb_.clear();
    stack_.clear();
    committing_ = false;
    mode_ = Mode::Inactive;
    l1_->abortTransaction();
    pendingCore_.reset();

    if (resource) {
        // Insufficient resources: re-execute and really take the lock
        // (paper Fig. 3, step 3). The TLR instance ends here; the lock
        // itself serializes the retry, so the timestamp is released.
        noElideOncePc_ = regionPc_;
        pairPred_.penalize(regionPc_);
        ++fallbacks_;
        instanceActive_ = false;
        if (cfg_.enableTlr && tsHeld_) {
            tsHeld_ = false;
            ++clock_;
        }
    } else if (!cfg_.enableTlr) {
        // SLE restart policy: a bounded number of retries, then the
        // lock is acquired for real.
        if (++retriesUsed_ > cfg_.sleMaxRetries) {
            noElideOncePc_ = regionPc_;
            pairPred_.penalize(regionPc_);
            ++fallbacks_;
            instanceActive_ = false;
        }
    } else {
        // TLR robustness cap: a region that keeps restarting without
        // ever committing is not a critical section at all (e.g., a
        // spin-wait inside a wrongly-elided fetch-and-add idiom, such
        // as a barrier arrival counter). Timestamps guarantee
        // progress only for *finite* transactions, so after far more
        // retries than any real conflict schedule produces, expose
        // the elided write and execute for real.
        if (++retriesUsed_ > cfg_.tlrMaxRetries) {
            noElideOncePc_ = regionPc_;
            pairPred_.penalize(regionPc_);
            ++fallbacks_;
            instanceActive_ = false;
            if (tsHeld_) {
                tsHeld_ = false;
                ++clock_;
            }
        }
    }
    // Under TLR the timestamp is retained and reused so the thread
    // keeps its position in the priority order (paper Section 4).
    if (TLR_TRACE_ARMED(trace_))
        trace_->emit(eq_.now(), TraceComp::Spec, TraceEvent::TxnRestart,
                     id_, line_addr, static_cast<std::uint64_t>(reason),
                     resource ? 1 : 0, instanceActive_ ? 0 : 1,
                     packTsMeta(lastConflictTs_));
    core_->restoreCheckpoint(checkpoint_);
}

void
SpecEngine::noteConflictTs(const Timestamp &ts)
{
    if (ts.valid) {
        maxConflictClock_ = std::max(maxConflictClock_, ts.clock);
        lastConflictTs_ = ts;
    }
}

void
SpecEngine::conflictAbort(Addr line_addr, AbortReason reason)
{
    if (reason == AbortReason::SharedInvalidation ||
        reason == AbortReason::PendingInvalidated) {
        escalation_.insert(lineAlign(line_addr));
    }
    doAbort(reason, false, line_addr);
}

void
SpecEngine::resourceAbort(Addr line_addr, AbortReason reason)
{
    doAbort(reason, true, line_addr);
}

void
SpecEngine::specMshrDrained(Addr line_addr)
{
    (void)line_addr;
    if (committing_)
        tryFinishCommit();
}

void
SpecEngine::cacheOpDone(const CacheOp &op, std::uint64_t value)
{
    if (!pendingCore_ || op.token != token_)
        return; // response from a squashed attempt

    switch (op.kind) {
      case CacheOp::Kind::LoadShared:
      case CacheOp::Kind::LoadExclusive:
        if (pendingCore_->type == CoreMemOp::Type::LoadLinked)
            lastLl_ = {true, op.addr, value};
        respondCore(value, 0);
        return;
      case CacheOp::Kind::Store:
        respondCore(0, 0);
        return;
      case CacheOp::Kind::EnsureExclusive:
        if (pendingCore_->type == CoreMemOp::Type::AtomicSwap ||
            pendingCore_->type == CoreMemOp::Type::AtomicCas ||
            pendingCore_->type == CoreMemOp::Type::AtomicAdd) {
            // Speculative atomic: the exclusive fetch returned the
            // current value; buffer the modified value.
            finishSpecAtomic(*pendingCore_, value, true);
            return;
        }
        // A buffered speculative store (or SC treated as data).
        respondCore(
            pendingCore_->type == CoreMemOp::Type::StoreCond ? 1 : 0, 0);
        return;
      case CacheOp::Kind::StoreCond:
      case CacheOp::Kind::AtomicSwap:
      case CacheOp::Kind::AtomicCas:
      case CacheOp::Kind::AtomicAdd:
        respondCore(value, 0);
        return;
    }
}

void
SpecEngine::descheduled()
{
    // A speculative region is fully replayable: abort it so its
    // (elided, never-acquired) lock stays free while we are off the
    // cpu. doAbort() also drops the pending core request. Outside
    // speculation, in-flight operations may have irreversible memory
    // effects, so they complete normally and the core defers the
    // suspension to the instruction boundary.
    if (mode_ == Mode::Spec)
        doAbort(AbortReason::Preempted, false);
}

void
SpecEngine::io(CpuId cpu)
{
    (void)cpu;
    if (mode_ == Mode::Spec)
        doAbort(AbortReason::Unbufferable, true);
}

} // namespace tlr
