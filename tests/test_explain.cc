/**
 * @file
 * Unit tests for the causal conflict explainer: trace-filter parsing,
 * the binary raw-trace round trip, wait-for graph construction (edge
 * spans, service causes, cycles, convoys, restart edges), the
 * critical-path tick decomposition with exact synthetic numbers, and a
 * full-system run proving the offline replay (tlrquery's path)
 * reproduces the online report byte for byte.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "explain/explain.hh"
#include "explain/rawtrace.hh"
#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "trace/filter.hh"
#include "trace/lifecycle.hh"
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

/** waiter deferred behind owner on line. */
TraceRecord
defer(Tick tick, CpuId owner, CpuId waiter, Addr line)
{
    return rec(tick, TraceComp::L1, TraceEvent::CohDefer, owner, line,
               waiter, static_cast<std::uint64_t>(ReqType::GetX));
}

/** owner lets waiter go on line. */
TraceRecord
service(Tick tick, CpuId owner, CpuId waiter, Addr line,
        ServiceCause cause = ServiceCause::CommitDrain)
{
    return rec(tick, TraceComp::L1, TraceEvent::CohService, owner, line,
               waiter, static_cast<std::uint64_t>(cause));
}

TraceRecord
elide(Tick tick, CpuId cpu, Addr lock, bool new_instance = true)
{
    return rec(tick, TraceComp::Spec, TraceEvent::TxnElide, cpu, lock,
               0, 0, 0, new_instance ? 1 : 0);
}

TraceRecord
commit(Tick tick, CpuId cpu)
{
    return rec(tick, TraceComp::Spec, TraceEvent::TxnCommit, cpu, 0);
}

} // namespace

// ---------------------------------------------------------------------
// TraceFilter

TEST(TraceFilter, DefaultMatchesEverything)
{
    TraceFilter f;
    EXPECT_TRUE(f.empty());
    EXPECT_TRUE(f.matches(defer(0, 1, 0, 0x40)));
    EXPECT_TRUE(f.matches(commit(999, 3)));
}

TEST(TraceFilter, RepeatedKeysOrDistinctKeysAnd)
{
    TraceFilter f;
    EXPECT_EQ(f.parse("cpu:1,cpu:3,class:Coh,tick:100-200"), "");
    EXPECT_FALSE(f.empty());

    // cpu 1, Coh class, tick in range: passes.
    EXPECT_TRUE(f.matches(defer(150, 1, 0, 0x40)));
    // cpu 3 also passes (cpu terms OR).
    EXPECT_TRUE(f.matches(defer(150, 3, 0, 0x40)));
    // cpu 2 fails the cpu term.
    EXPECT_FALSE(f.matches(defer(150, 2, 0, 0x40)));
    // Txn class fails the class term even on a listed cpu.
    EXPECT_FALSE(f.matches(elide(150, 1, 0x80)));
    // Out-of-range tick fails.
    EXPECT_FALSE(f.matches(defer(99, 1, 0, 0x40)));
    EXPECT_FALSE(f.matches(defer(201, 1, 0, 0x40)));
}

TEST(TraceFilter, KindCompAndAddrAliases)
{
    TraceFilter f;
    EXPECT_EQ(f.parse("kind:defer,kind:service"), "");
    EXPECT_TRUE(f.matches(defer(0, 1, 0, 0x40)));
    EXPECT_TRUE(f.matches(service(0, 1, 0, 0x40)));
    EXPECT_FALSE(f.matches(commit(0, 1)));

    TraceFilter g;
    EXPECT_EQ(g.parse("comp:L1,lock:0x40"), "");
    EXPECT_TRUE(g.matches(defer(0, 1, 0, 0x40)));
    EXPECT_FALSE(g.matches(defer(0, 1, 0, 0x80)));
    // "lock:", "line:" and "addr:" are the same key.
    TraceFilter h;
    EXPECT_EQ(h.parse("line:64"), "");
    EXPECT_TRUE(h.matches(defer(0, 1, 0, 0x40)));
}

TEST(TraceFilter, StackedParsesMerge)
{
    TraceFilter f;
    EXPECT_EQ(f.parse("cpu:0"), "");
    EXPECT_EQ(f.parse("cpu:2"), "");
    EXPECT_TRUE(f.matches(defer(0, 0, 1, 0x40)));
    EXPECT_TRUE(f.matches(defer(0, 2, 1, 0x40)));
    EXPECT_FALSE(f.matches(defer(0, 1, 0, 0x40)));
}

TEST(TraceFilter, RejectsMalformedTerms)
{
    TraceFilter f;
    EXPECT_NE(f.parse("bogus:3"), "");
    EXPECT_NE(f.parse("cpu:abc"), "");
    EXPECT_NE(f.parse("noseparator"), "");
    EXPECT_NE(f.parse("kind:not-an-event"), "");
    EXPECT_NE(f.parse("class:Wat"), "");
    EXPECT_NE(f.parse("tick:500"), "");
    EXPECT_NE(f.parse("tick:9-5"), "");
}

// ---------------------------------------------------------------------
// Raw binary trace file

TEST(RawTrace, HeaderAndRecordsRoundTrip)
{
    const std::string path = "test_rawtrace_roundtrip.bin";
    std::vector<TraceRecord> in;
    for (int i = 0; i < 5; ++i) {
        TraceRecord r = defer(100 + i, i % 3, (i + 1) % 3, 0x40 * i);
        r.seq = static_cast<std::uint64_t>(i);
        in.push_back(r);
    }

    {
        RawTraceWriter w;
        ASSERT_EQ(w.open(path), "");
        for (const TraceRecord &r : in)
            w.onRecord(r);
        w.finish(777);
        EXPECT_EQ(w.written(), 5u);
    }

    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    EXPECT_EQ(rd.header().version, 1u);
    EXPECT_EQ(rd.header().recordSize, sizeof(TraceRecord));
    EXPECT_EQ(rd.header().recordCount, 5u);
    EXPECT_EQ(rd.header().finalTick, 777u);

    std::vector<TraceRecord> out;
    rd.forEach([&](const TraceRecord &r) { out.push_back(r); });
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(std::memcmp(&in[i], &out[i], sizeof(TraceRecord)), 0)
            << "record " << i;
    std::remove(path.c_str());
}

TEST(RawTrace, WriterAppliesFilter)
{
    const std::string path = "test_rawtrace_filtered.bin";
    RawTraceWriter w;
    ASSERT_EQ(w.open(path), "");
    TraceFilter f;
    ASSERT_EQ(f.parse("cpu:1"), "");
    w.setFilter(f);
    w.onRecord(defer(10, 1, 0, 0x40)); // kept
    w.onRecord(defer(20, 2, 0, 0x40)); // dropped
    w.onRecord(commit(30, 1));         // kept
    w.finish(100);
    EXPECT_EQ(w.written(), 2u);

    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    std::vector<std::int16_t> cpus;
    rd.forEach([&](const TraceRecord &r) { cpus.push_back(r.cpu); });
    EXPECT_EQ(cpus, (std::vector<std::int16_t>{1, 1}));
    std::remove(path.c_str());
}

TEST(RawTrace, RoundTripAcrossBlockBoundaries)
{
    // Two and a half blocks: two full-block writes plus the partial
    // block finish() writes.
    const std::string path = "test_rawtrace_blocks.bin";
    const size_t n = 2 * RawTraceWriter::blockRecords +
                     RawTraceWriter::blockRecords / 2;
    std::vector<TraceRecord> in;
    for (size_t i = 0; i < n; ++i) {
        TraceRecord r = defer(i, static_cast<CpuId>(i % 7),
                              static_cast<CpuId>(i % 5), 0x40 * i);
        r.seq = i;
        r.a3 = ~i;
        in.push_back(r);
    }
    {
        RawTraceWriter w;
        ASSERT_EQ(w.open(path), "");
        for (const TraceRecord &r : in)
            w.onRecord(r);
        EXPECT_EQ(w.written(), 2 * RawTraceWriter::blockRecords);
        w.finish(n);
        EXPECT_EQ(w.written(), n);
        EXPECT_EQ(w.close(), "");
    }

    std::FILE *fp = std::fopen(path.c_str(), "rb");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 0, SEEK_END);
    EXPECT_EQ(std::ftell(fp), static_cast<long>(sizeof(RawTraceHeader) +
                                                n * sizeof(TraceRecord)));
    std::fclose(fp);

    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    EXPECT_EQ(rd.header().recordCount, n);
    EXPECT_EQ(rd.header().finalTick, n);
    size_t i = 0;
    rd.forEach([&](const TraceRecord &r) {
        ASSERT_LT(i, n);
        EXPECT_EQ(std::memcmp(&r, &in[i], sizeof r), 0) << "record " << i;
        ++i;
    });
    EXPECT_EQ(i, n);
    std::remove(path.c_str());
}

TEST(RawTrace, WriterDestroyedWithoutFinishPatchesHeader)
{
    // A run that panics never reaches TraceSink::finish; unwinding
    // destroys the writer, and the header must still name every record
    // written and the last one's tick.
    const std::string path = "test_rawtrace_unfinished.bin";
    const size_t n = RawTraceWriter::blockRecords + 3;
    {
        RawTraceWriter w;
        ASSERT_EQ(w.open(path), "");
        for (size_t i = 0; i < n; ++i)
            w.onRecord(defer(10 + i, 1, 2, 0x40));
    }

    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    EXPECT_EQ(rd.header().recordCount, n);
    EXPECT_EQ(rd.header().finalTick, 10 + n - 1);
    size_t seen = 0;
    rd.forEach([&](const TraceRecord &) { ++seen; });
    EXPECT_EQ(seen, n);
    std::remove(path.c_str());
}

TEST(RawTrace, FailedWriteCountsOnlyWrittenRecordsAndIsReported)
{
    // Cap the file size so the second block write stops short: the
    // header count must name only the records fwrite wrote, and the
    // failure must surface from finish() and close().
    const std::string path = "test_rawtrace_short.bin";
    const size_t fit = RawTraceWriter::blockRecords + 100;
    rlimit old{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old), 0);
    void (*oldHandler)(int) = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = old;
    cap.rlim_cur = sizeof(RawTraceHeader) + fit * sizeof(TraceRecord);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &cap), 0);

    std::string finishErr, closeErr;
    std::uint64_t written = 0;
    {
        RawTraceWriter w;
        EXPECT_EQ(w.open(path), "");
        for (size_t i = 0; i < 3 * RawTraceWriter::blockRecords; ++i)
            w.onRecord(defer(i, 1, 2, 0x40));
        w.finish(99);
        finishErr = w.error();
        closeErr = w.close();
        written = w.written();
    }
    setrlimit(RLIMIT_FSIZE, &old);
    std::signal(SIGXFSZ, oldHandler);

    EXPECT_EQ(written, fit);
    EXPECT_NE(finishErr.find("cannot write to 'test_rawtrace_short.bin'"),
              std::string::npos)
        << finishErr;
    EXPECT_EQ(closeErr, finishErr);
    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    EXPECT_EQ(rd.header().recordCount, fit);
    size_t n = 0;
    rd.forEach([&](const TraceRecord &) { ++n; });
    EXPECT_EQ(n, fit);
    std::remove(path.c_str());
}

TEST(RawTrace, ReaderRejectsGarbage)
{
    RawTraceReader rd;
    EXPECT_NE(rd.open("no_such_trace_file.bin"), "");

    const std::string path = "test_rawtrace_garbage.bin";
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("definitely not a trace header at all", fp);
    std::fclose(fp);
    EXPECT_NE(rd.open(path), "");
    std::remove(path.c_str());
}

TEST(RawTrace, ReplayDrivesListenerFinishWithFinalTick)
{
    // Satellite case: an instance still in flight when the run ends
    // must close at the recorded final tick on offline replay, exactly
    // as the online lifecycle tracker closes it at sink finish.
    const std::string path = "test_rawtrace_replay.bin";
    {
        RawTraceWriter w;
        ASSERT_EQ(w.open(path), "");
        w.onRecord(elide(100, 0, 0x80));
        w.finish(450); // no commit: txn is in flight at sim end
    }
    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    TxnLifecycle lc;
    rd.replay(lc);
    ASSERT_EQ(lc.spans().size(), 1u);
    EXPECT_EQ(lc.spans()[0].outcome, "unfinished");
    EXPECT_EQ(lc.spans()[0].begin, 100u);
    EXPECT_EQ(lc.spans()[0].end, 450u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// ConflictGraphBuilder

TEST(ConflictGraph, DeferServiceMakesOneEdge)
{
    ConflictGraphBuilder g;
    g.onRecord(defer(100, /*owner=*/2, /*waiter=*/1, 0x40));
    g.onRecord(service(150, 2, 1, 0x40, ServiceCause::CommitDrain));
    g.finish(200);

    ASSERT_EQ(g.edges().size(), 1u);
    const DeferEdge &e = g.edges()[0];
    EXPECT_EQ(e.waiter, 1);
    EXPECT_EQ(e.owner, 2);
    EXPECT_EQ(e.line, 0x40u);
    EXPECT_EQ(e.span(), 50u);
    EXPECT_TRUE(e.serviced);
    EXPECT_FALSE(e.relaxed);
    EXPECT_EQ(e.cause, ServiceCause::CommitDrain);

    const LineContention lc = g.lines().at(0x40);
    EXPECT_EQ(lc.defers, 1u);
    EXPECT_EQ(lc.waitTicks, 50u);
    EXPECT_EQ(lc.maxQueue, 1u);
}

TEST(ConflictGraph, UnservicedEdgeClosesAtFinish)
{
    ConflictGraphBuilder g;
    g.onRecord(defer(100, 2, 1, 0x40));
    g.finish(300);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_FALSE(g.edges()[0].serviced);
    EXPECT_EQ(g.edges()[0].span(), 200u);
    EXPECT_EQ(g.lines().at(0x40).waitTicks, 200u);
}

TEST(ConflictGraph, RelaxedDeferFlagged)
{
    ConflictGraphBuilder g;
    TraceRecord r = defer(10, 0, 3, 0x80);
    r.kind = TraceEvent::CohRelaxedDefer;
    g.onRecord(r);
    g.finish(20);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_TRUE(g.edges()[0].relaxed);
    EXPECT_EQ(g.lines().at(0x80).relaxedDefers, 1u);
}

TEST(ConflictGraph, DetectsTwoCpuWaitCycle)
{
    ConflictGraphBuilder g;
    // 1 waits on 2, then 2 waits on 1: the second edge closes a cycle.
    g.onRecord(defer(100, 2, 1, 0x40));
    EXPECT_TRUE(g.cycles().empty());
    g.onRecord(defer(120, 1, 2, 0x80));
    ASSERT_EQ(g.cycles().size(), 1u);
    EXPECT_EQ(g.cycles()[0].tick, 120u);
    EXPECT_EQ(g.cycles()[0].cpus, (std::vector<std::int16_t>{2, 1}));
    g.finish(200);
}

TEST(ConflictGraph, DetectsTransitiveCycleAndIgnoresChains)
{
    ConflictGraphBuilder g;
    // 0 → 1 → 2 is a chain, no cycle yet.
    g.onRecord(defer(10, 1, 0, 0x40));
    g.onRecord(defer(20, 2, 1, 0x80));
    EXPECT_TRUE(g.cycles().empty());
    // 2 → 0 closes the 3-cycle.
    g.onRecord(defer(30, 0, 2, 0xc0));
    ASSERT_EQ(g.cycles().size(), 1u);
    EXPECT_EQ(g.cycles()[0].cpus.size(), 3u);
    g.finish(100);
}

TEST(ConflictGraph, CycleWalkFollowsLinesInAddressOrder)
{
    ConflictGraphBuilder g;
    // cpu2 waits on cpu3 (line 0x80) and on cpu4 (line 0x40); both
    // wait on cpu1. cpu1 then waiting on cpu2 closes two cycles; the
    // walk tries cpu2's pending lines in address order, so it reports
    // the one through cpu4.
    g.onRecord(defer(10, 3, 2, 0x80));
    g.onRecord(defer(11, 4, 2, 0x40));
    g.onRecord(defer(12, 1, 3, 0xc0));
    g.onRecord(defer(13, 1, 4, 0x100));
    EXPECT_TRUE(g.cycles().empty());
    g.onRecord(defer(20, 2, 1, 0x140));
    ASSERT_EQ(g.cycles().size(), 1u);
    EXPECT_EQ(g.cycles()[0].cpus, (std::vector<std::int16_t>{1, 2, 4}));
    g.finish(100);
}

TEST(ConflictGraph, DetectsCycleBeyondSixtyFourCpus)
{
    ConflictGraphBuilder g;
    g.onRecord(defer(10, 70, 65, 0x40));
    g.onRecord(defer(20, 65, 70, 0x80));
    ASSERT_EQ(g.cycles().size(), 1u);
    EXPECT_EQ(g.cycles()[0].cpus, (std::vector<std::int16_t>{70, 65}));
    g.finish(100);
}

TEST(ConflictGraph, ServiceBreaksCycleCandidacy)
{
    ConflictGraphBuilder g;
    g.onRecord(defer(10, 2, 1, 0x40));
    g.onRecord(service(20, 2, 1, 0x40));
    // Edge 1→2 is closed, so 2→1 closes no cycle.
    g.onRecord(defer(30, 1, 2, 0x80));
    EXPECT_TRUE(g.cycles().empty());
    g.finish(100);
}

TEST(ConflictGraph, ConvoyNeedsSimultaneousWaiters)
{
    ConflictGraphBuilder g;
    // Sequential waiters on 0x40: never more than one at a time.
    g.onRecord(defer(10, 0, 1, 0x40));
    g.onRecord(service(20, 0, 1, 0x40));
    g.onRecord(defer(30, 0, 2, 0x40));
    g.onRecord(service(40, 0, 2, 0x40));
    // Simultaneous waiters on 0x80.
    g.onRecord(defer(50, 0, 1, 0x80));
    g.onRecord(defer(55, 0, 2, 0x80));
    g.onRecord(defer(60, 0, 3, 0x80));
    g.finish(100);

    EXPECT_EQ(g.lines().at(0x40).maxQueue, 1u);
    EXPECT_EQ(g.lines().at(0x80).maxQueue, 3u);
    EXPECT_EQ(g.convoyLines(2), (std::vector<Addr>{0x80}));
    EXPECT_EQ(g.convoyLines(4), (std::vector<Addr>{}));
}

TEST(ConflictGraph, RestartEdgeCarriesWinnerFromPackedMeta)
{
    ConflictGraphBuilder g;
    Timestamp winner = Timestamp::make(9, 5); // clock 9, cpu 5
    g.onRecord(rec(40, TraceComp::Spec, TraceEvent::TxnRestart, 3, 0x40,
                   /*reason=*/0, 0, /*ended=*/0, packTsMeta(winner)));
    // No contender noted: winner stays -1.
    g.onRecord(rec(60, TraceComp::Spec, TraceEvent::TxnRestart, 2, 0,
                   /*reason=*/1, 0, 0, packTsMeta(Timestamp{})));
    g.finish(100);

    ASSERT_EQ(g.restartEdges().size(), 2u);
    EXPECT_EQ(g.restartEdges()[0].loser, 3);
    EXPECT_EQ(g.restartEdges()[0].winner, 5);
    EXPECT_EQ(g.restartEdges()[0].line, 0x40u);
    EXPECT_EQ(g.restartEdges()[1].winner, -1);
    EXPECT_EQ(g.lines().at(0x40).restarts, 1u);
}

// ---------------------------------------------------------------------
// CriticalPathAccountant

TEST(CriticalPath, DecomposesExactTicks)
{
    CriticalPathAccountant a;
    // cpu0: [100, 200] with a 20-tick miss and a 40-tick deferral.
    a.onRecord(elide(100, 0, 0x80));
    a.onRecord(rec(110, TraceComp::L1, TraceEvent::CohMiss, 0, 0x1c0,
                   static_cast<std::uint64_t>(ReqType::GetX)));
    a.onRecord(rec(130, TraceComp::L1, TraceEvent::LineInstall, 0,
                   0x1c0));
    a.onRecord(defer(140, /*owner=*/1, /*waiter=*/0, 0x200));
    a.onRecord(service(180, 1, 0, 0x200));
    a.onRecord(commit(200, 0));
    a.finish(300);

    ASSERT_EQ(a.instances().size(), 1u);
    const TxnInstance &t = a.instances()[0];
    EXPECT_EQ(t.serial, 0u);
    EXPECT_EQ(t.cpu, 0);
    EXPECT_EQ(t.lock, 0x80u);
    EXPECT_EQ(t.outcome, "commit");
    EXPECT_EQ(t.total(), 100u);
    EXPECT_EQ(t.missTicks, 20u);
    EXPECT_EQ(t.deferTicks, 40u);
    EXPECT_EQ(t.redoTicks, 0u);
    EXPECT_EQ(t.execTicks, 40u);
    EXPECT_EQ(t.execTicks + t.deferTicks + t.missTicks + t.redoTicks,
              t.total());
    EXPECT_EQ(t.longestDeferSpan, 40u);
    EXPECT_EQ(t.longestDeferOwner, 1);
    EXPECT_EQ(t.longestDeferLine, 0x200u);
    EXPECT_EQ(t.longestDeferTick, 140u);
    EXPECT_EQ(t.name(), "T0@cpu0");
}

TEST(CriticalPath, RestartTurnsPrefixIntoRedo)
{
    CriticalPathAccountant a;
    a.onRecord(elide(0, 0, 0x80));
    a.onRecord(rec(50, TraceComp::Spec, TraceEvent::TxnRestart, 0, 0x40,
                   0, 0, /*ended=*/0, packTsMeta(Timestamp::make(1, 2))));
    a.onRecord(commit(100, 0));
    a.finish(200);

    ASSERT_EQ(a.instances().size(), 1u);
    const TxnInstance &t = a.instances()[0];
    EXPECT_EQ(t.restarts, 1u);
    EXPECT_EQ(t.redoTicks, 50u);
    EXPECT_EQ(t.execTicks, 50u);
    EXPECT_EQ(t.lastRestartWinner, 2);
    EXPECT_EQ(t.delay(), 50u);
}

TEST(CriticalPath, DeferWinsClassificationPriority)
{
    // A deferral overlapping both a miss and the pre-restart window
    // must be charged to defer, not double-counted.
    CriticalPathAccountant a;
    a.onRecord(elide(0, 0, 0x80));
    a.onRecord(rec(10, TraceComp::L1, TraceEvent::CohMiss, 0, 0x1c0,
                   static_cast<std::uint64_t>(ReqType::GetX)));
    a.onRecord(defer(10, 1, 0, 0x1c0));
    a.onRecord(service(40, 1, 0, 0x1c0));
    a.onRecord(rec(40, TraceComp::L1, TraceEvent::LineInstall, 0,
                   0x1c0));
    a.onRecord(rec(60, TraceComp::Spec, TraceEvent::TxnRestart, 0, 0,
                   0, 0, 0, 0));
    a.onRecord(commit(100, 0));
    a.finish(200);

    ASSERT_EQ(a.instances().size(), 1u);
    const TxnInstance &t = a.instances()[0];
    EXPECT_EQ(t.deferTicks, 30u); // [10,40] all defer, not miss
    EXPECT_EQ(t.missTicks, 0u);
    EXPECT_EQ(t.redoTicks, 30u); // [0,10] + [40,60] before restart
    EXPECT_EQ(t.execTicks, 40u); // [60,100]
}

TEST(CriticalPath, FallbackAndUnfinishedOutcomes)
{
    CriticalPathAccountant a;
    a.onRecord(elide(0, 0, 0x80));
    a.onRecord(rec(50, TraceComp::Spec, TraceEvent::TxnRestart, 0, 0,
                   /*reason=*/0, 0, /*ended=*/1, 0));
    a.onRecord(elide(60, 1, 0x80));
    a.finish(200);

    ASSERT_EQ(a.instances().size(), 2u);
    EXPECT_EQ(a.instances()[0].outcome.rfind("fallback:", 0), 0u);
    EXPECT_EQ(a.instances()[0].end, 50u);
    EXPECT_EQ(a.instances()[1].outcome, "unfinished");
    EXPECT_EQ(a.instances()[1].end, 200u);
}

TEST(CriticalPath, InstanceAtFindsHolder)
{
    CriticalPathAccountant a;
    a.onRecord(elide(100, 0, 0x80));
    a.onRecord(commit(200, 0));
    a.onRecord(elide(300, 0, 0x80));
    a.onRecord(commit(400, 0));
    a.finish(500);

    ASSERT_EQ(a.instances().size(), 2u);
    EXPECT_EQ(a.instanceAt(0, 150)->serial, 0u);
    EXPECT_EQ(a.instanceAt(0, 200)->serial, 0u);
    EXPECT_EQ(a.instanceAt(0, 350)->serial, 1u);
    EXPECT_EQ(a.instanceAt(0, 250), nullptr); // between instances
    EXPECT_EQ(a.instanceAt(0, 50), nullptr);  // before the first
    EXPECT_EQ(a.instanceAt(7, 150), nullptr); // unknown cpu
}

// ---------------------------------------------------------------------
// Explainer facade

TEST(Explainer, ChainFollowsLongestDeferToOwnerInstance)
{
    Explainer ex;
    // cpu1 holds [0,100]; cpu0's txn defers behind it [20,80].
    ex.onRecord(elide(0, 1, 0x80));
    ex.onRecord(elide(10, 0, 0x80));
    ex.onRecord(defer(20, 1, 0, 0x40));
    ex.onRecord(service(80, 1, 0, 0x40));
    ex.onRecord(commit(100, 1));
    ex.onRecord(commit(120, 0));
    ex.finish(200);

    const auto &inst = ex.paths().instances();
    ASSERT_EQ(inst.size(), 2u);
    // instances_ is close-ordered: [0]=cpu1's txn, [1]=cpu0's.
    std::vector<ChainLink> chain = ex.chainFor(inst[1]);
    ASSERT_EQ(chain.size(), 1u);
    EXPECT_EQ(chain[0].waiter, "T1@cpu0");
    EXPECT_EQ(chain[0].owner, "T0@cpu1");
    EXPECT_EQ(chain[0].ownerCpu, 1);
    EXPECT_EQ(chain[0].line, 0x40u);
    EXPECT_EQ(chain[0].waitTicks, 60u);
    EXPECT_EQ(ex.maxChainDepth(), 1u);
}

TEST(Explainer, TransitiveChainReachesDepthTwo)
{
    Explainer ex;
    // cpu2 holds the lock; cpu1 defers behind cpu2; cpu0 defers
    // behind cpu1 — the classic transitive convoy.
    ex.onRecord(elide(0, 2, 0x80));
    ex.onRecord(elide(5, 1, 0x80));
    ex.onRecord(elide(10, 0, 0x80));
    ex.onRecord(defer(20, 2, 1, 0x40)); // 1 waits on 2
    ex.onRecord(defer(30, 1, 0, 0xc0)); // 0 waits on 1
    ex.onRecord(service(90, 2, 1, 0x40));
    ex.onRecord(commit(100, 2));
    ex.onRecord(service(110, 1, 0, 0xc0));
    ex.onRecord(commit(120, 1));
    ex.onRecord(commit(140, 0));
    ex.finish(200);

    EXPECT_GE(ex.maxChainDepth(), 2u);
    const std::string report = ex.report(ExplainMode::Txn);
    EXPECT_NE(report.find("causal conflict explainer"),
              std::string::npos);
    EXPECT_NE(report.find("chain depth"), std::string::npos);
}

TEST(Explainer, ChainStopsOnCycleInsteadOfLooping)
{
    Explainer ex;
    // Mutual wait: 0 behind 1 and 1 behind 0, overlapping instances.
    ex.onRecord(elide(0, 0, 0x80));
    ex.onRecord(elide(0, 1, 0x80));
    ex.onRecord(defer(10, 1, 0, 0x40));
    ex.onRecord(defer(20, 0, 1, 0xc0));
    ex.onRecord(commit(100, 0));
    ex.onRecord(commit(100, 1));
    ex.finish(100);

    for (const TxnInstance &t : ex.paths().instances()) {
        std::vector<ChainLink> chain = ex.chainFor(t);
        EXPECT_LE(chain.size(), 8u); // bounded, no infinite walk
    }
    EXPECT_EQ(ex.graph().cycles().size(), 1u);
}

TEST(Explainer, RendersAllModesAndJson)
{
    Explainer ex;
    ex.onRecord(elide(0, 1, 0x80));
    ex.onRecord(elide(5, 0, 0x80));
    ex.onRecord(defer(10, 1, 0, 0x40));
    ex.onRecord(service(50, 1, 0, 0x40));
    ex.onRecord(commit(60, 1));
    ex.onRecord(commit(80, 0));
    ex.finish(100);

    const std::string txn = ex.report(ExplainMode::Txn);
    EXPECT_NE(txn.find("T1@cpu0"), std::string::npos);
    const std::string lock = ex.report(ExplainMode::Lock);
    EXPECT_NE(lock.find("0x40"), std::string::npos);
    const std::string cpu = ex.report(ExplainMode::Cpu);
    EXPECT_NE(cpu.find("cpu0"), std::string::npos);

    const std::string json = ex.json();
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"defer_edges\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Full system: online explain == offline replay (the tlrquery path)

TEST(ExplainSystem, OfflineReplayReproducesOnlineReport)
{
    const std::string path = "test_explain_system.bin";

    MachineParams mp;
    mp.numCpus = 4;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    mp.explain = true;

    System sys(mp);
    RawTraceWriter writer;
    ASSERT_EQ(writer.open(path), "");
    sys.addTraceListener(&writer);
    installWorkload(sys, makeReverseWriters(4, 256));
    ASSERT_TRUE(sys.run());

    ASSERT_NE(sys.explainer(), nullptr);
    const std::string online = sys.explainer()->report(ExplainMode::Txn);
    EXPECT_NE(online.find("causal conflict explainer"),
              std::string::npos);
    // The conflict-heavy Figures 2/4 workload exhibits transitive
    // blocking: somebody's wait chain is at least two hops deep.
    EXPECT_GE(sys.explainer()->maxChainDepth(), 2u);

    RawTraceReader rd;
    ASSERT_EQ(rd.open(path), "");
    EXPECT_GT(rd.header().recordCount, 0u);
    Explainer offline;
    rd.replay(offline);
    EXPECT_EQ(offline.report(ExplainMode::Txn), online);
    EXPECT_EQ(offline.report(ExplainMode::Lock),
              sys.explainer()->report(ExplainMode::Lock));
    EXPECT_EQ(offline.report(ExplainMode::Cpu),
              sys.explainer()->report(ExplainMode::Cpu));
    EXPECT_EQ(offline.json(), sys.explainer()->json());
    std::remove(path.c_str());
}

TEST(ExplainSystem, ExplainOffAddsNoListeners)
{
    MachineParams mp;
    mp.numCpus = 4;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);

    System sys(mp);
    EXPECT_EQ(sys.explainer(), nullptr);
    installWorkload(sys, makeReverseWriters(4, 16));
    ASSERT_TRUE(sys.run());
    // No explain, no other consumer: the sink never armed.
    EXPECT_EQ(sys.traceSink().emitted(), 0u);
}
