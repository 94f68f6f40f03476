/**
 * @file
 * Unit tests for the structured tracing subsystem: ring-buffer
 * wrap-around, sink gating, the TxnState reducer's edge-case rules,
 * the transaction lifecycle tracker and its Chrome-trace export, and
 * — most importantly — injected-violation
 * tests proving each online invariant checker actually fires, plus a
 * clean full-system run with zero violations.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "coherence/spec_hooks.hh"
#include "explain/path.hh"
#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "mem/line.hh"
#include "metrics/collector.hh"
#include "trace/checkers.hh"
#include "trace/lifecycle.hh"
#include "trace/ring.hh"
#include "trace/sink.hh"
#include "trace/txn_state.hh"
#include "workloads/micro.hh"
#include "workloads/scenarios.hh"

using namespace tlr;

namespace
{

TraceRecord
rec(Tick tick, TraceComp comp, TraceEvent kind, CpuId cpu, Addr addr,
    std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0,
    std::uint64_t a3 = 0)
{
    TraceRecord r;
    r.tick = tick;
    r.comp = comp;
    r.kind = kind;
    r.cpu = static_cast<std::int16_t>(cpu);
    r.addr = addr;
    r.a0 = a0;
    r.a1 = a1;
    r.a2 = a2;
    r.a3 = a3;
    return r;
}

/** A sink plus registry in keep-going mode, for violation counting. */
struct CheckerFixture
{
    StatSet stats;
    TraceSink sink;
    InvariantRegistry reg;

    explicit CheckerFixture(bool keep_going = true,
                            Tick cycle_stuck_ticks = 1000)
        : reg(stats, &sink, makeParams(keep_going, cycle_stuck_ticks),
              /*defer_untimestamped=*/true, /*yield_timeout=*/100)
    {
        sink.configure(/*ring_capacity=*/32);
        sink.addListener(&reg);
    }

    static TraceParams
    makeParams(bool keep_going, Tick cycle_stuck_ticks)
    {
        TraceParams p;
        p.checkInvariants = true;
        p.keepGoingOnViolation = keep_going;
        p.cycleStuckTicks = cycle_stuck_ticks;
        return p;
    }

    std::uint64_t
    count(const char *checker) const
    {
        return stats.get("trace", std::string("violations.") + checker);
    }
};

} // namespace

// ---------------------------------------------------------------------
// TraceRing

TEST(TraceRing, WrapsAndIteratesOldestFirst)
{
    TraceRing ring(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        TraceRecord r;
        r.tick = i;
        ring.push(r);
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);

    std::vector<Tick> ticks;
    ring.forEach([&](const TraceRecord &r) { ticks.push_back(r.tick); });
    EXPECT_EQ(ticks, (std::vector<Tick>{6, 7, 8, 9}));

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
}

TEST(TraceRing, ZeroCapacityDropsEverything)
{
    TraceRing ring(0);
    TraceRecord r;
    ring.push(r);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.capacity(), 0u);
}

// ---------------------------------------------------------------------
// TraceSink

TEST(TraceSink, ArmedOnlyWithConsumers)
{
    TraceSink sink;
    EXPECT_FALSE(sink.armed());
    TraceSink *unwired = nullptr; // component before setTrace()
    EXPECT_FALSE(TLR_TRACE_ARMED(unwired));

    sink.configure(8);
    EXPECT_TRUE(sink.armed());
    EXPECT_TRUE(TLR_TRACE_ARMED(&sink));

    sink.configure(0);
    EXPECT_FALSE(sink.armed());

    TxnLifecycle lc;
    sink.addListener(&lc);
    EXPECT_TRUE(sink.armed());
}

TEST(TraceSink, StampsMonotonicSequenceNumbers)
{
    TraceSink sink;
    sink.configure(4);
    for (int i = 0; i < 3; ++i)
        sink.emit(10, TraceComp::Spec, TraceEvent::TxnCommit, 0, 0);
    EXPECT_EQ(sink.emitted(), 3u);

    std::vector<std::uint64_t> seqs;
    sink.ring().forEach(
        [&](const TraceRecord &r) { seqs.push_back(r.seq); });
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(TraceSink, FormatRecordNamesEvents)
{
    TraceRecord r = rec(42, TraceComp::L1, TraceEvent::LineInstall, 3,
                        0x1c0, static_cast<std::uint64_t>(CohState::Shared));
    std::string s = formatRecord(r);
    EXPECT_NE(s.find("line-install"), std::string::npos);
    EXPECT_NE(s.find("cpu3"), std::string::npos);
}

// ---------------------------------------------------------------------
// TxnLifecycle

TEST(TxnLifecycle, ReconstructsSpansAndOutcomes)
{
    TxnLifecycle lc;
    Timestamp ts = Timestamp::make(7, 0);

    // cpu0: elide, one restart, re-elide (same instance), then commit.
    lc.onRecord(rec(100, TraceComp::Spec, TraceEvent::TxnElide, 0, 0x80,
                    0, ts.clock, packTsMeta(ts), /*new instance=*/1));
    lc.onRecord(rec(150, TraceComp::Spec, TraceEvent::TxnRestart, 0, 0,
                    static_cast<std::uint64_t>(AbortReason::ConflictLost),
                    0, /*instance ended=*/0));
    lc.onRecord(rec(160, TraceComp::Spec, TraceEvent::TxnElide, 0, 0x80,
                    0, ts.clock, packTsMeta(ts), /*new instance=*/0));
    lc.onRecord(rec(200, TraceComp::Spec, TraceEvent::TxnCommit, 0, 0,
                    2, ts.clock));

    // cpu1: elide then a resource abort that falls back to the lock.
    lc.onRecord(rec(120, TraceComp::Spec, TraceEvent::TxnElide, 1, 0x80,
                    0, 0, 0, /*new instance=*/1));
    lc.onRecord(
        rec(180, TraceComp::Spec, TraceEvent::TxnRestart, 1, 0,
            static_cast<std::uint64_t>(AbortReason::ResourceWriteBuffer),
            /*resource=*/1, /*instance ended=*/1));

    // cpu2: still speculating at end of run.
    lc.onRecord(rec(130, TraceComp::Spec, TraceEvent::TxnElide, 2, 0x80,
                    0, 0, 0, /*new instance=*/1));
    lc.finish(300);

    ASSERT_EQ(lc.spans().size(), 3u);
    const auto &spans = lc.spans();

    // Spans close in record order: cpu0's commit, cpu1's fallback,
    // then the unfinished cpu2 span at finish().
    EXPECT_EQ(spans[0].cpu, 0);
    EXPECT_EQ(spans[0].outcome, "commit");
    EXPECT_EQ(spans[0].begin, 100u);
    EXPECT_EQ(spans[0].end, 200u);
    EXPECT_EQ(spans[0].restarts, 1u);
    EXPECT_EQ(spans[0].tsClock, 7u);
    EXPECT_TRUE(spans[0].tsValid);

    EXPECT_EQ(spans[1].cpu, 1);
    EXPECT_EQ(spans[1].outcome.rfind("fallback:", 0), 0u);

    EXPECT_EQ(spans[2].cpu, 2);
    EXPECT_EQ(spans[2].outcome, "unfinished");
    EXPECT_EQ(spans[2].end, 300u);

    // The restart shows up as an instant marker, not a span break.
    ASSERT_EQ(lc.instants().size(), 1u);
    EXPECT_EQ(lc.instants()[0].name, "restart");
}

TEST(TxnLifecycle, ExportsChromeTraceJson)
{
    TxnLifecycle lc;
    lc.onRecord(rec(10, TraceComp::Spec, TraceEvent::TxnElide, 0, 0x80,
                    0, 0, 0, 1));
    lc.onRecord(rec(50, TraceComp::Spec, TraceEvent::TxnCommit, 0, 0));
    lc.onRecord(rec(20, TraceComp::L1, TraceEvent::CohDefer, 1, 0x1c0,
                    /*requester=*/0,
                    static_cast<std::uint64_t>(ReqType::GetX)));
    lc.finish(60);

    std::ostringstream os;
    lc.exportChromeTrace(os);
    const std::string json = os.str();

    // Structural fragments every Chrome-trace consumer needs.
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos); // row names
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos); // spans
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos); // instants
    EXPECT_NE(json.find("\"outcome\":\"commit\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"defer\""), std::string::npos);
    // Balanced braces => structurally plausible JSON.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

// ---------------------------------------------------------------------
// TxnState: one rule per edge case. None of the first three occurs in
// traces the simulator emits today, so each rule is pinned here rather
// than by a golden.

namespace
{

TraceRecord
elide(Tick tick, CpuId cpu, bool fresh = true)
{
    return rec(tick, TraceComp::Spec, TraceEvent::TxnElide, cpu, 0x80, 0,
               0, 0, fresh ? 1 : 0);
}

TraceRecord
deferRec(Tick tick, CpuId owner, CpuId waiter, Addr line)
{
    return rec(tick, TraceComp::L1, TraceEvent::CohDefer, owner, line,
               static_cast<std::uint64_t>(waiter));
}

TraceRecord
serviceRec(Tick tick, CpuId owner, CpuId waiter, Addr line)
{
    return rec(tick, TraceComp::L1, TraceEvent::CohService, owner, line,
               static_cast<std::uint64_t>(waiter));
}

TraceRecord
restartRec(Tick tick, CpuId cpu, bool fallback)
{
    return rec(tick, TraceComp::Spec, TraceEvent::TxnRestart, cpu, 0,
               static_cast<std::uint64_t>(AbortReason::ConflictLost), 0,
               fallback ? 1 : 0);
}

} // namespace

TEST(TxnState, ReDeferralKeepsTheFirstDeferral)
{
    TxnState st;
    EXPECT_NE(st.step(deferRec(10, 0, 1, 0x40)).deferOpened, nullptr);
    const TxnState::Change &again = st.step(deferRec(30, 2, 1, 0x40));
    EXPECT_EQ(again.deferOpened, nullptr);
    ASSERT_EQ(st.waiting(1).size(), 1u);
    EXPECT_EQ(st.waiting(1)[0].start, 10u);
    EXPECT_EQ(st.waiting(1)[0].owner, 0);
    EXPECT_EQ(st.waiters(0x40), 1u);

    const TxnState::Change &c = st.step(serviceRec(50, 0, 1, 0x40));
    ASSERT_NE(c.deferClosed, nullptr);
    EXPECT_EQ(c.deferClosed->start, 10u);
    EXPECT_TRUE(st.waiting(1).empty());
    EXPECT_EQ(st.waiters(0x40), 0u);
}

TEST(TxnState, ClosingInstanceLeavesItsDeferralOpen)
{
    TxnState st;
    st.step(elide(5, 1));
    st.step(deferRec(10, 0, 1, 0x40));
    const TxnState::Change &c = st.step(
        rec(20, TraceComp::Spec, TraceEvent::TxnCommit, 1, 0));
    ASSERT_NE(c.closed, nullptr);
    EXPECT_EQ(c.deferClosed, nullptr);
    EXPECT_EQ(st.live(1), nullptr);
    ASSERT_EQ(st.waiting(1).size(), 1u);
    EXPECT_EQ(st.waiters(0x40), 1u);

    // The accountant charges the instance the wait up to its close.
    CriticalPathAccountant a;
    for (const TraceRecord &r :
         {elide(5, 1), deferRec(10, 0, 1, 0x40),
          rec(20, TraceComp::Spec, TraceEvent::TxnCommit, 1, 0)})
        a.onRecord(r);
    a.finish(100);
    ASSERT_EQ(a.instances().size(), 1u);
    EXPECT_EQ(a.instances()[0].deferTicks, 10u);
    EXPECT_EQ(a.instances()[0].execTicks, 5u);
}

TEST(TxnState, NewElisionClosesUnclosedInstanceAsUnfinished)
{
    TxnState st;
    st.step(elide(5, 2));
    const TxnState::Change &c = st.step(elide(40, 2));
    ASSERT_NE(c.closed, nullptr);
    EXPECT_EQ(c.closed->outcomeName(), "unfinished");
    EXPECT_EQ(c.closed->begin, 5u);
    EXPECT_EQ(c.closed->end, 40u);
    ASSERT_NE(c.opened, nullptr);
    EXPECT_EQ(c.opened->serial, c.closed->serial + 1);
    EXPECT_EQ(c.opened->begin, 40u);

    // A re-elision continues the open instance instead.
    EXPECT_EQ(st.step(elide(50, 2, /*fresh=*/false)).opened, nullptr);
    EXPECT_EQ(st.live(2)->begin, 40u);
}

TEST(TxnState, ServiceWithoutOpenDeferralChangesNothing)
{
    TxnState st;
    st.step(deferRec(10, 0, 1, 0x40));
    for (const TraceRecord &r :
         {serviceRec(20, 0, 1, 0x80), serviceRec(20, 0, 3, 0x40),
          serviceRec(20, 0, 9, 0x40)}) {
        const TxnState::Change &c = st.step(r);
        EXPECT_EQ(c.deferClosed, nullptr);
        EXPECT_EQ(c.closed, nullptr);
    }
    ASSERT_EQ(st.waiting(1).size(), 1u);
    EXPECT_EQ(st.waiters(0x40), 1u);
    EXPECT_TRUE(st.waiting(3).empty());
}

TEST(TxnState, FinishClosesInstancesThenDeferralsInCpuOrder)
{
    TxnState st;
    st.step(elide(5, 2));
    st.step(elide(6, 0));
    st.step(deferRec(10, 2, 0, 0x80));
    st.step(deferRec(11, 2, 0, 0x40));
    std::vector<std::string> seen;
    st.finish(100, [&](const TxnState::Change &c) {
        EXPECT_EQ(c.record, nullptr);
        EXPECT_EQ(c.tick, 100u);
        if (c.closed)
            seen.push_back("txn@cpu" + std::to_string(c.closed->cpu));
        if (c.deferClosed)
            seen.push_back("defer " + std::to_string(c.deferClosed->line));
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"txn@cpu0", "defer 64",
                                              "defer 128", "txn@cpu2"}));
    EXPECT_EQ(st.waiters(0x40), 0u);
}

TEST(TxnState, FallbackRestartCountsDifferByView)
{
    // elide, restart, re-elide, restart into fallback: the span leaves
    // out the restart that ends the instance; the accountant and the
    // metrics retries histogram count it.
    const TraceRecord stream[] = {elide(10, 0), restartRec(20, 0, false),
                                  elide(25, 0, false),
                                  restartRec(40, 0, true)};
    TxnLifecycle lc;
    CriticalPathAccountant path;
    MetricsCollector metrics;
    for (const TraceRecord &r : stream) {
        lc.onRecord(r);
        path.onRecord(r);
        metrics.onRecord(r);
    }
    lc.finish(100);
    path.finish(100);
    metrics.finish(100);
    ASSERT_EQ(lc.spans().size(), 1u);
    EXPECT_EQ(lc.spans()[0].restarts, 1u);
    EXPECT_EQ(lc.spans()[0].outcome, "fallback:conflict-lost");
    ASSERT_EQ(path.instances().size(), 1u);
    EXPECT_EQ(path.instances()[0].restarts, 2u);
    EXPECT_EQ(path.instances()[0].outcome, lc.spans()[0].outcome);
    EXPECT_EQ(metrics.snapshot().retries.count(), 1u);
    EXPECT_EQ(metrics.snapshot().retries.max(), 2u);
    EXPECT_EQ(metrics.snapshot().locks.at(0x80).restarts, 2u);
    EXPECT_EQ(metrics.snapshot().locks.at(0x80).fallbacks, 1u);
}

// ---------------------------------------------------------------------
// Injected violations: each checker must fire on its own bug class.

TEST(InvariantCheckers, SingleOwnerFiresOnTwoWritableCopies)
{
    CheckerFixture f;
    f.sink.emit(10, TraceComp::L1, TraceEvent::LineInstall, 0, 0x1c0,
                static_cast<std::uint64_t>(CohState::Modified));
    EXPECT_EQ(f.reg.violations(), 0u);
    // A second cache installing the same line writable is the bug.
    f.sink.emit(20, TraceComp::L1, TraceEvent::LineInstall, 1, 0x1c0,
                static_cast<std::uint64_t>(CohState::Modified));
    EXPECT_EQ(f.count("single-owner"), 1u);
}

TEST(InvariantCheckers, SingleOwnerFiresOnWritablePlusShared)
{
    CheckerFixture f;
    f.sink.emit(10, TraceComp::L1, TraceEvent::LineInstall, 0, 0x1c0,
                static_cast<std::uint64_t>(CohState::Shared));
    f.sink.emit(20, TraceComp::L1, TraceEvent::LineInstall, 1, 0x1c0,
                static_cast<std::uint64_t>(CohState::Shared));
    EXPECT_EQ(f.reg.violations(), 0u); // two Shared copies are fine
    // cpu1 upgrading without invalidating cpu0's copy is the bug.
    f.sink.emit(30, TraceComp::L1, TraceEvent::LineUpgrade, 1, 0x1c0);
    EXPECT_EQ(f.count("single-owner"), 1u);
}

TEST(InvariantCheckers, SingleOwnerAcceptsLegalHandoff)
{
    CheckerFixture f;
    f.sink.emit(10, TraceComp::L1, TraceEvent::LineInstall, 0, 0x1c0,
                static_cast<std::uint64_t>(CohState::Modified));
    f.sink.emit(20, TraceComp::L1, TraceEvent::LineInval, 0, 0x1c0);
    f.sink.emit(30, TraceComp::L1, TraceEvent::LineInstall, 1, 0x1c0,
                static_cast<std::uint64_t>(CohState::Modified));
    f.sink.emit(40, TraceComp::L1, TraceEvent::LineDowngrade, 1, 0x1c0,
                static_cast<std::uint64_t>(CohState::Owned));
    f.sink.emit(50, TraceComp::L1, TraceEvent::LineInstall, 0, 0x1c0,
                static_cast<std::uint64_t>(CohState::Shared));
    EXPECT_EQ(f.reg.violations(), 0u);
}

TEST(InvariantCheckers, TimestampOrderFiresOnLaterWinner)
{
    CheckerFixture f;
    const Timestamp earlier = Timestamp::make(5, 0);
    const Timestamp later = Timestamp::make(9, 1);

    // Losing to an earlier timestamp is the protocol working.
    f.sink.emit(10, TraceComp::L1, TraceEvent::CohLose, 1, 0x1c0,
                earlier.clock, packTsMeta(earlier), later.clock,
                packTsMeta(later));
    EXPECT_EQ(f.reg.violations(), 0u);

    // Losing to a *later* timestamp violates earliest-wins.
    f.sink.emit(20, TraceComp::L1, TraceEvent::CohLose, 0, 0x1c0,
                later.clock, packTsMeta(later), earlier.clock,
                packTsMeta(earlier));
    EXPECT_EQ(f.count("timestamp-order"), 1u);
}

TEST(InvariantCheckers, TimestampOrderFiresOnUntimestampedWinner)
{
    // With the defer-untimestamped policy, a timestamped transaction
    // must never lose to a request from outside any transaction.
    CheckerFixture f;
    const Timestamp own = Timestamp::make(5, 0);
    const Timestamp invalid; // valid == false
    f.sink.emit(10, TraceComp::L1, TraceEvent::CohLose, 0, 0x1c0,
                invalid.clock, packTsMeta(invalid), own.clock,
                packTsMeta(own));
    EXPECT_EQ(f.count("timestamp-order"), 1u);
}

TEST(InvariantCheckers, DeferralCycleFiresWhenCyclePersists)
{
    CheckerFixture f(/*keep_going=*/true, /*cycle_stuck_ticks=*/1000);
    const auto getx = static_cast<std::uint64_t>(ReqType::GetX);

    // cpu0 waits on cpu1, cpu1 waits on cpu0: a waits-for cycle.
    f.sink.emit(10, TraceComp::L1, TraceEvent::CohDefer, 1, 0x100,
                /*requester=*/0, getx);
    f.sink.emit(20, TraceComp::L1, TraceEvent::CohDefer, 0, 0x140,
                /*requester=*/1, getx);
    EXPECT_EQ(f.reg.violations(), 0u); // transient cycles are legal

    // Another edge change far past the persistence bound: the cycle
    // is still there, so the checker must report a deadlock.
    f.sink.emit(5000, TraceComp::L1, TraceEvent::CohDefer, 2, 0x180,
                /*requester=*/3, getx);
    EXPECT_EQ(f.count("deferral-cycle"), 1u);
}

TEST(InvariantCheckers, DeferralCycleFiresAtFinish)
{
    CheckerFixture f(/*keep_going=*/true, /*cycle_stuck_ticks=*/1000);
    const auto getx = static_cast<std::uint64_t>(ReqType::GetX);
    f.sink.emit(10, TraceComp::L1, TraceEvent::CohDefer, 1, 0x100, 0,
                getx);
    f.sink.emit(20, TraceComp::L1, TraceEvent::CohDefer, 0, 0x140, 1,
                getx);
    f.sink.finish(5000); // run ends with the cycle unbroken
    EXPECT_EQ(f.count("deferral-cycle"), 1u);
}

TEST(InvariantCheckers, DeferralCycleClearedByServiceAndCommit)
{
    CheckerFixture f(/*keep_going=*/true, /*cycle_stuck_ticks=*/1000);
    const auto getx = static_cast<std::uint64_t>(ReqType::GetX);
    f.sink.emit(10, TraceComp::L1, TraceEvent::CohDefer, 1, 0x100, 0,
                getx);
    f.sink.emit(20, TraceComp::L1, TraceEvent::CohDefer, 0, 0x140, 1,
                getx);
    // cpu1 commits: its deferred queue drains, breaking the cycle.
    f.sink.emit(30, TraceComp::L1, TraceEvent::CohDeferDrain, 1, 0, 1);
    f.sink.emit(40, TraceComp::L1, TraceEvent::CohService, 1, 0x100, 0);
    f.sink.finish(50'000);
    EXPECT_EQ(f.reg.violations(), 0u);
}

/** The message of the panic @p fn raises ("" when it does not). */
template <typename Fn>
std::string
panicMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const std::logic_error &e) {
        return e.what();
    }
    return "";
}

TEST(InvariantCheckers, DeferralCycleReportsFirstCycleInCpuOrder)
{
    // Two cycles close at once when cpu1 defers behind cpu2: 0-1-2-0
    // and 1-2-3-1. The search starts at the lowest waiter and tries
    // holders in ascending order, so it reports 0-1-2 whatever order
    // the edges arrived in (a highest-first root order would report
    // 1-2-0, a highest-first holder order 1-2-3).
    CheckerFixture f(/*keep_going=*/false, /*cycle_stuck_ticks=*/1000);
    const auto getx = static_cast<std::uint64_t>(ReqType::GetX);
    // The holder emits the deferral; the requester is the waiter.
    f.sink.emit(10, TraceComp::L1, TraceEvent::CohDefer, 3, 0x100,
                /*requester=*/2, getx);
    f.sink.emit(11, TraceComp::L1, TraceEvent::CohDefer, 0, 0x140, 2,
                getx);
    f.sink.emit(12, TraceComp::L1, TraceEvent::CohDefer, 1, 0x180, 3,
                getx);
    f.sink.emit(13, TraceComp::L1, TraceEvent::CohDefer, 1, 0x1c0, 0,
                getx);
    f.sink.emit(14, TraceComp::L1, TraceEvent::CohDefer, 2, 0x200, 1,
                getx);
    EXPECT_EQ(panicMessage([&] { f.sink.finish(5000); }),
              "panic: invariant deferral-cycle violated @5000: waits-for "
              "cycle [cpu0 -> cpu1 -> cpu2] unbroken for 4986 ticks");
}

TEST(InvariantCheckers, DeferralCycleFoundBeyondSixtyFourCpus)
{
    // cpus 65 and 70 sit in the second 64-bit word of each adjacency
    // row; a cycle there is found like any other.
    CheckerFixture f(/*keep_going=*/false, /*cycle_stuck_ticks=*/1000);
    const auto getx = static_cast<std::uint64_t>(ReqType::GetX);
    f.sink.emit(10, TraceComp::L1, TraceEvent::CohDefer, 70, 0x100,
                /*requester=*/65, getx);
    f.sink.emit(20, TraceComp::L1, TraceEvent::CohDefer, 65, 0x140, 70,
                getx);
    EXPECT_EQ(panicMessage([&] { f.sink.finish(5000); }),
              "panic: invariant deferral-cycle violated @5000: waits-for "
              "cycle [cpu65 -> cpu70] unbroken for 4980 ticks");
}

TEST(InvariantCheckers, SingleOwnerNamesCpusInAscendingOrder)
{
    CheckerFixture f(/*keep_going=*/false);
    const auto mod = static_cast<std::uint64_t>(CohState::Modified);
    f.sink.emit(10, TraceComp::L1, TraceEvent::LineInstall, 5, 0x1c0, mod);
    EXPECT_EQ(panicMessage([&] {
                  f.sink.emit(20, TraceComp::L1, TraceEvent::LineInstall,
                              2, 0x1c0, mod);
              }),
              "panic: invariant single-owner violated @20: line 0x1c0 "
              "writable in cpu2 and cpu5");

    CheckerFixture g(/*keep_going=*/false);
    g.sink.emit(10, TraceComp::L1, TraceEvent::LineInstall, 7, 0x200,
                static_cast<std::uint64_t>(CohState::Shared));
    EXPECT_EQ(panicMessage([&] {
                  g.sink.emit(20, TraceComp::L1, TraceEvent::LineInstall,
                              3, 0x200, mod);
              }),
              "panic: invariant single-owner violated @20: line 0x200 "
              "writable in cpu3 but 2 copies exist");
}

TEST(InvariantCheckers, AtomicityFiresOnTornReadSet)
{
    CheckerFixture f;
    // cpu0 elides (reads the lock free) and reads word 0x200 = 5.
    f.sink.emit(10, TraceComp::Spec, TraceEvent::TxnElide, 0, 0x80, 0,
                0, 0, 1);
    f.sink.emit(20, TraceComp::L1, TraceEvent::TxnRead, 0, 0x200, 5);
    // cpu1 commits 9 into that word while cpu0 still speculates...
    f.sink.emit(30, TraceComp::L1, TraceEvent::MemWrite, 1, 0x200, 9);
    // ...and cpu0 commits anyway without having been aborted: torn.
    f.sink.emit(40, TraceComp::Spec, TraceEvent::TxnCommitStart, 0, 0);
    EXPECT_EQ(f.count("atomicity"), 1u);
}

TEST(InvariantCheckers, AtomicityCleanCommitAndAbortPaths)
{
    CheckerFixture f;
    // Clean commit: the read word is untouched until after commit.
    f.sink.emit(10, TraceComp::Spec, TraceEvent::TxnElide, 0, 0x80, 0,
                0, 0, 1);
    f.sink.emit(20, TraceComp::L1, TraceEvent::TxnRead, 0, 0x200, 5);
    f.sink.emit(30, TraceComp::Spec, TraceEvent::TxnCommitStart, 0, 0);
    f.sink.emit(31, TraceComp::L1, TraceEvent::TxnWrite, 0, 0x200, 6);
    f.sink.emit(32, TraceComp::Spec, TraceEvent::TxnCommit, 0, 0, 1);
    EXPECT_EQ(f.reg.violations(), 0u);
    EXPECT_TRUE(f.reg.atomicity().hasWord(0x200));
    EXPECT_EQ(f.reg.atomicity().word(0x200), 6u);

    // Aborted speculation discards its read set: the conflicting
    // write must not be reported against a transaction that restarted.
    f.sink.emit(40, TraceComp::Spec, TraceEvent::TxnElide, 1, 0x80, 0,
                0, 0, 1);
    f.sink.emit(50, TraceComp::L1, TraceEvent::TxnRead, 1, 0x200, 6);
    f.sink.emit(
        60, TraceComp::Spec, TraceEvent::TxnRestart, 1, 0,
        static_cast<std::uint64_t>(AbortReason::ConflictLost), 0, 0);
    f.sink.emit(70, TraceComp::L1, TraceEvent::MemWrite, 0, 0x200, 7);
    f.sink.emit(80, TraceComp::Spec, TraceEvent::TxnCommitStart, 1, 0);
    EXPECT_EQ(f.reg.violations(), 0u);
}

TEST(InvariantCheckers, PanicsAtViolatingTickWithoutKeepGoing)
{
    CheckerFixture f(/*keep_going=*/false);
    f.sink.emit(10, TraceComp::L1, TraceEvent::LineInstall, 0, 0x1c0,
                static_cast<std::uint64_t>(CohState::Modified));
    EXPECT_THROW(
        f.sink.emit(20, TraceComp::L1, TraceEvent::LineInstall, 1,
                    0x1c0,
                    static_cast<std::uint64_t>(CohState::Modified)),
        std::logic_error);
    // The violation was still counted before the panic.
    EXPECT_EQ(f.reg.violations(), 1u);
}

// ---------------------------------------------------------------------
// Full-system integration: a conflict-heavy run under full checking.

TEST(InvariantCheckers, CleanRunOnConflictHeavyWorkload)
{
    MicroParams wp;
    wp.numCpus = 4;
    wp.totalOps = 256;

    MachineParams mp;
    mp.numCpus = wp.numCpus;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    mp.trace.ringCapacity = 64;
    mp.trace.checkInvariants = true;

    RunStats r = runWorkload(mp, makeSingleCounter(wp));
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.valid);
    EXPECT_GT(r.traceRecords, 0u);
    EXPECT_EQ(r.invariantViolations, 0u);
}

TEST(InvariantCheckers, DisabledTracingEmitsNothing)
{
    MicroParams wp;
    wp.numCpus = 4;
    wp.totalOps = 256;

    MachineParams mp;
    mp.numCpus = wp.numCpus;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);

    RunStats r = runWorkload(mp, makeSingleCounter(wp));
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.traceRecords, 0u);
    EXPECT_EQ(r.invariantViolations, 0u);
}

// ---------------------------------------------------------------------
// CohDeferDepth bookkeeping across both drain paths. The deferred
// queue must drain on abort exactly as on commit (paper Section 4:
// a restarting processor cannot sit on deferred requests), and the
// advertised depth must shrink at every drain and end the run at 0.

namespace
{

struct DeferDepthProbe : TraceListener
{
    std::map<std::int16_t, std::uint64_t> depth; ///< latest per cpu
    std::uint64_t commitDrains = 0;
    std::uint64_t abortDrains = 0;
    std::uint64_t growViolations = 0; ///< post-drain depth grew
    /** cpu → depth seen just before its pending drain. */
    std::map<std::int16_t, std::uint64_t> drainPending;

    void
    onRecord(const TraceRecord &r) override
    {
        if (r.kind == TraceEvent::CohDeferDrain) {
            if (r.a1)
                ++commitDrains;
            else
                ++abortDrains;
            drainPending[r.cpu] = depth[r.cpu];
        } else if (r.kind == TraceEvent::CohDeferDepth) {
            auto it = drainPending.find(r.cpu);
            if (it != drainPending.end()) {
                if (r.a0 > it->second)
                    ++growViolations;
                drainPending.erase(it);
            }
            depth[r.cpu] = r.a0;
        }
    }
    void finish(Tick) override {}
};

} // namespace

TEST(DeferDepth, DrainsOnAbortAndReturnsToZero)
{
    MachineParams mp;
    mp.numCpus = 4;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);

    System sys(mp);
    DeferDepthProbe probe;
    sys.addTraceListener(&probe);
    installWorkload(sys, makeReverseWriters(4, 256));
    ASSERT_TRUE(sys.run());

    // The Figures 2/4 conflict pattern aborts transactions that hold
    // deferred requests, so both drain causes must appear.
    EXPECT_GE(probe.abortDrains, 1u);
    EXPECT_GE(probe.commitDrains, 1u);
    // A drain never leaves the queue deeper than it found it.
    EXPECT_EQ(probe.growViolations, 0u);
    // Every controller ends the run with an empty deferral backlog.
    EXPECT_FALSE(probe.depth.empty());
    for (const auto &[cpu, d] : probe.depth)
        EXPECT_EQ(d, 0u) << "cpu" << cpu;
}

// ---------------------------------------------------------------------
// Transactions still in flight when the run is cut off (watchdog)
// must export as spans ending at the final tick, never past it and
// never with end < begin (Perfetto renders those as negative
// durations).

TEST(TxnLifecycle, WatchdogTruncatedRunClosesSpansAtFinalTick)
{
    MachineParams mp;
    mp.numCpus = 4;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    mp.maxTicks = 20'000; // cut the run off mid-flight

    System sys(mp);
    TxnLifecycle lc;
    sys.addTraceListener(&lc);
    installWorkload(sys, makeReverseWriters(4, 1'000'000));
    EXPECT_FALSE(sys.run()); // watchdog fired

    ASSERT_GT(lc.spans().size(), 0u);
    // completionTick() stays 0 on a watchdog abort; the final tick the
    // sink sees is bounded by the watchdog budget itself.
    bool sawUnfinished = false;
    for (const auto &s : lc.spans()) {
        EXPECT_LE(s.begin, s.end);
        EXPECT_LE(s.end, mp.maxTicks);
        if (s.outcome == "unfinished")
            sawUnfinished = true;
    }
    EXPECT_TRUE(sawUnfinished);
}
