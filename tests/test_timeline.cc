/**
 * @file
 * Epoch-timeline unit and end-to-end tests (src/timeline/,
 * DESIGN.md §13): epoch rollup arithmetic, each online detector fired
 * from a synthetic stream, offline reconstruction byte-identity
 * against a recorded raw trace, epoch sums matching the StatSet
 * whole-run totals, and the timeline-off zero-perturbation contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "explain/rawtrace.hh"
#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "timeline/timeline.hh"
#include "trace/events.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

using namespace tlr;

namespace
{

TraceRecord
rec(Tick tick, TraceEvent kind, std::int16_t cpu = 0, Addr addr = 0,
    std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0,
    std::uint64_t a3 = 0)
{
    TraceRecord r;
    r.tick = tick;
    r.kind = kind;
    r.cpu = cpu;
    r.addr = addr;
    r.a0 = a0;
    r.a1 = a1;
    r.a2 = a2;
    r.a3 = a3;
    return r;
}

MachineParams
machineParams(Scheme s, int cpus, Tick timeline_epoch = 0)
{
    MachineParams mp;
    mp.numCpus = cpus;
    mp.spec = schemeSpecConfig(s);
    mp.timelineEpoch = timeline_epoch;
    return mp;
}

MicroParams
microParams(Scheme s, int cpus, std::uint64_t ops)
{
    MicroParams p;
    p.numCpus = cpus;
    p.lockKind = schemeLockKind(s);
    p.totalOps = ops;
    return p;
}

TEST(EpochRollup, CountsLandInTheirEpochs)
{
    EpochTimeline tl(100);
    tl.onRecord(rec(10, TraceEvent::TxnCommit));
    tl.onRecord(rec(99, TraceEvent::TxnCommit));
    tl.onRecord(rec(100, TraceEvent::TxnRestart, 1, 0x80));
    tl.onRecord(rec(250, TraceEvent::TxnElide, 0, 0x40, 0, 0, 0, 1));
    tl.finish(250);

    ASSERT_EQ(tl.epochs().size(), 3u);
    EXPECT_EQ(tl.epochs()[0].commits, 2u);
    EXPECT_EQ(tl.epochs()[0].restarts, 0u);
    EXPECT_EQ(tl.epochs()[1].restarts, 1u);
    EXPECT_EQ(tl.epochs()[1].hotLine, 0x80u);
    EXPECT_EQ(tl.epochs()[2].elisions, 1u);
    EXPECT_EQ(tl.epochs()[2].startTick, 200u);
    EXPECT_EQ(tl.finalTick(), 250u);
}

TEST(EpochRollup, EmptyEpochsStillEmitRows)
{
    EpochTimeline tl(50);
    tl.onRecord(rec(5, TraceEvent::TxnCommit));
    tl.onRecord(rec(255, TraceEvent::TxnCommit));
    tl.finish(255);

    // Epochs 1..4 saw no records but must appear (the CSV must have
    // one row per epoch for the diff's per-epoch pairing to work).
    ASSERT_EQ(tl.epochs().size(), 6u);
    for (size_t i = 1; i <= 4; ++i)
        EXPECT_EQ(tl.epochs()[i].records, 0u) << "epoch " << i;
    EXPECT_EQ(tl.epochs()[5].commits, 1u);
}

TEST(EpochRollup, ReElisionDoesNotCountAsNewInstance)
{
    EpochTimeline tl(100);
    tl.onRecord(rec(1, TraceEvent::TxnElide, 0, 0x40, 0, 0, 0, 1));
    tl.onRecord(rec(2, TraceEvent::TxnElide, 0, 0x40, 0, 0, 0, 0));
    tl.finish(2);
    EXPECT_EQ(tl.epochs()[0].elisions, 1u);
}

TEST(EpochRollup, DeferWaitSpansCompleteOnService)
{
    EpochTimeline tl(100);
    // cpu1 parks on line 0x80 (owner cpu0) at t=10, serviced at t=70.
    tl.onRecord(rec(10, TraceEvent::CohDefer, 0, 0x80, 1));
    tl.onRecord(rec(70, TraceEvent::CohService, 0, 0x80, 1));
    tl.finish(99);

    ASSERT_EQ(tl.epochs().size(), 1u);
    EXPECT_EQ(tl.epochs()[0].defers, 1u);
    EXPECT_EQ(tl.epochs()[0].services, 1u);
    EXPECT_EQ(tl.epochs()[0].deferWaitSum, 60u);
    EXPECT_EQ(tl.epochs()[0].deferWaitCount, 1u);
    EXPECT_EQ(tl.epochs()[0].deferWaitMax, 60u);
}

TEST(Detectors, RestartStormFiresOnSpike)
{
    EpochTimeline tl(100);
    // Epoch 0: a livelock-style burst well above stormMinRestarts with
    // no trailing history — must fire immediately (the Figure 2 case).
    for (int i = 0; i < 20; ++i)
        tl.onRecord(rec(static_cast<Tick>(i), TraceEvent::TxnRestart,
                        static_cast<std::int16_t>(i % 2), 0x80));
    tl.finish(150);

    ASSERT_FALSE(tl.alerts().empty());
    EXPECT_EQ(tl.alerts()[0].kind, "restart-storm");
    EXPECT_EQ(tl.alerts()[0].epoch, 0u);
    EXPECT_EQ(tl.alerts()[0].line, 0x80u);
    EXPECT_EQ(tl.alerts()[0].value, 20u);
}

TEST(Detectors, RestartStormIsEdgeTriggered)
{
    EpochTimeline tl(100);
    // Two consecutive storm epochs: one alert at onset, not two.
    for (int e = 0; e < 2; ++e)
        for (int i = 0; i < 20; ++i)
            tl.onRecord(rec(static_cast<Tick>(e * 100 + i),
                            TraceEvent::TxnRestart, 0, 0x80));
    tl.finish(250);

    size_t storms = 0;
    for (const TimelineAlert &a : tl.alerts())
        if (a.kind == "restart-storm")
            ++storms;
    EXPECT_EQ(storms, 1u);
}

TEST(Detectors, SteadyRestartRateDoesNotStorm)
{
    EpochTimeline tl(100);
    // The same per-epoch rate for 10 epochs: above stormMinRestarts
    // but never above stormFactor x the trailing mean after epoch 0...
    // except epoch 0 itself, which has no history. Use a rate below
    // stormMinRestarts so nothing fires at all.
    for (int e = 0; e < 10; ++e)
        for (int i = 0; i < 10; ++i)
            tl.onRecord(rec(static_cast<Tick>(e * 100 + i),
                            TraceEvent::TxnRestart, 0, 0x80));
    tl.finish(999);

    for (const TimelineAlert &a : tl.alerts())
        EXPECT_NE(a.kind, "restart-storm");
}

TEST(Detectors, ConvoyFiresWhenQueueReachesThreshold)
{
    EpochTimeline tl(100);
    // Three distinct waiters pile onto line 0x80 before any service.
    tl.onRecord(rec(10, TraceEvent::CohDefer, 0, 0x80, 1));
    tl.onRecord(rec(20, TraceEvent::CohDefer, 0, 0x80, 2));
    tl.onRecord(rec(30, TraceEvent::CohDefer, 0, 0x80, 3));
    tl.finish(99);

    ASSERT_FALSE(tl.alerts().empty());
    EXPECT_EQ(tl.alerts()[0].kind, "convoy");
    EXPECT_EQ(tl.alerts()[0].line, 0x80u);
    EXPECT_EQ(tl.alerts()[0].value, 3u);
    EXPECT_EQ(tl.epochs()[0].maxQueue, 3u);
    // The causal chain starts from the longest-waiting deferral.
    EXPECT_NE(tl.alerts()[0].chain.find("cpu1 waits on cpu0"),
              std::string::npos);
}

TEST(Detectors, ConvoyTwoWaitersIsQuiet)
{
    EpochTimeline tl(100);
    tl.onRecord(rec(10, TraceEvent::CohDefer, 0, 0x80, 1));
    tl.onRecord(rec(20, TraceEvent::CohDefer, 0, 0x80, 2));
    tl.onRecord(rec(40, TraceEvent::CohService, 0, 0x80, 1));
    tl.onRecord(rec(50, TraceEvent::CohService, 0, 0x80, 2));
    tl.finish(99);
    EXPECT_TRUE(tl.alerts().empty());
}

TEST(Detectors, ConvoyReArmsAfterDraining)
{
    EpochTimeline tl(100);
    auto pile = [&](Tick base) {
        for (std::uint64_t w = 1; w <= 3; ++w)
            tl.onRecord(rec(base + w, TraceEvent::CohDefer, 0, 0x80, w));
    };
    auto drain = [&](Tick base) {
        for (std::uint64_t w = 1; w <= 3; ++w)
            tl.onRecord(
                rec(base + w, TraceEvent::CohService, 0, 0x80, w));
    };
    pile(0);
    drain(50);
    // Epoch 1: fully drained, queue high-water 0 -> the line re-arms.
    tl.onRecord(rec(150, TraceEvent::TxnCommit));
    pile(200);
    tl.finish(299);

    size_t convoys = 0;
    for (const TimelineAlert &a : tl.alerts())
        if (a.kind == "convoy")
            ++convoys;
    EXPECT_EQ(convoys, 2u);
}

TEST(Detectors, StarvationFiresOnAgedDeferral)
{
    EpochTimeline tl(100);
    // Feed enough quick waits that the p99-derived threshold is small,
    // then leave one deferral parked for many epochs.
    for (std::uint64_t i = 0; i < 50; ++i) {
        tl.onRecord(rec(i, TraceEvent::CohDefer, 0, 0x40, 2));
        tl.onRecord(rec(i + 10, TraceEvent::CohService, 0, 0x40, 2));
    }
    tl.onRecord(rec(90, TraceEvent::CohDefer, 0, 0x80, 1));
    tl.onRecord(rec(900, TraceEvent::TxnCommit));
    tl.finish(999);

    size_t starved = 0;
    for (const TimelineAlert &a : tl.alerts()) {
        if (a.kind != "starvation")
            continue;
        ++starved;
        EXPECT_EQ(a.line, 0x80u);
        EXPECT_NE(a.chain.find("cpu1 waits on cpu0"),
                  std::string::npos);
    }
    EXPECT_EQ(starved, 1u); // once per (line, waiter), not per epoch
}

TEST(Detectors, ThroughputCollapseFiresWhenCommitsStopUnderConflict)
{
    EpochTimeline tl(100);
    // Four healthy epochs (20 commits each), then commits stop while
    // restarts continue.
    for (int e = 0; e < 4; ++e)
        for (int i = 0; i < 20; ++i)
            tl.onRecord(rec(static_cast<Tick>(e * 100 + i),
                            TraceEvent::TxnCommit));
    for (int i = 0; i < 5; ++i)
        tl.onRecord(rec(static_cast<Tick>(400 + i),
                        TraceEvent::TxnRestart, 0, 0x80));
    tl.finish(499);

    bool collapsed = false;
    for (const TimelineAlert &a : tl.alerts())
        if (a.kind == "throughput-collapse") {
            collapsed = true;
            EXPECT_EQ(a.epoch, 4u);
        }
    EXPECT_TRUE(collapsed);
}

TEST(Detectors, IdleTailIsNotACollapse)
{
    EpochTimeline tl(100);
    // Commits stop because the run finished: no restarts, no defers —
    // quiet epochs must not read as a pathology.
    for (int e = 0; e < 4; ++e)
        for (int i = 0; i < 20; ++i)
            tl.onRecord(rec(static_cast<Tick>(e * 100 + i),
                            TraceEvent::TxnCommit));
    tl.onRecord(rec(450, TraceEvent::CohMiss, 0, 0x80));
    tl.finish(499);

    for (const TimelineAlert &a : tl.alerts())
        EXPECT_NE(a.kind, "throughput-collapse");
}

TEST(Csv, HeaderRowsAndAlertsRoundToStableText)
{
    EpochTimeline tl(100);
    tl.onRecord(rec(10, TraceEvent::TxnCommit));
    tl.finish(150);

    std::string csv = tl.csv();
    EXPECT_NE(csv.find("# tlr-timeline schema=1 epoch_len=100"),
              std::string::npos);
    EXPECT_NE(csv.find("epoch,start_tick,records,commits"),
              std::string::npos);
    // Two epochs (0-99, 100-150) => header comment + column row + 2.
    size_t lines = 0;
    for (char c : csv)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(lines, 4u);
}

TEST(EndToEnd, EpochSumsMatchStatSetTotals)
{
    Scheme s = Scheme::BaseSleTlr;
    System sys(machineParams(s, 8, 500));
    installWorkload(sys,
                    makeSingleCounter(microParams(s, 8, 512)));
    ASSERT_TRUE(sys.run());
    ASSERT_NE(sys.timeline(), nullptr);

    std::uint64_t commits = 0, restarts = 0, fallbacks = 0;
    for (const EpochRow &e : sys.timeline()->epochs()) {
        commits += e.commits;
        restarts += e.restarts;
        fallbacks += e.fallbacks;
    }
    // The per-epoch values are deltas of the same events the StatSet
    // counts, so the timeline must sum back to the whole-run totals.
    EXPECT_EQ(commits, sys.stats().sum("spec", "commits"));
    EXPECT_EQ(restarts, sys.stats().sum("spec", "restarts"));
    EXPECT_EQ(fallbacks, sys.stats().sum("spec", "fallbacks"));
}

TEST(EndToEnd, OfflineReconstructionIsByteIdentical)
{
    Scheme s = Scheme::BaseSleTlr;
    std::string path = testing::TempDir() + "timeline_e2e.trace";

    MachineParams mp = machineParams(s, 8, 500);
    System sys(mp);
    RawTraceWriter writer;
    ASSERT_EQ(writer.open(path), "");
    sys.addTraceListener(&writer);
    installWorkload(sys, makeSingleCounter(microParams(s, 8, 512)));
    ASSERT_TRUE(sys.run());
    std::string online = sys.timeline()->csv();

    RawTraceReader reader;
    ASSERT_EQ(reader.open(path), "");
    EpochTimeline offline(500);
    reader.replay(offline);
    EXPECT_EQ(online, offline.csv());
    std::remove(path.c_str());
}

TEST(EndToEnd, TimelineOnDoesNotPerturbTheRun)
{
    Scheme s = Scheme::BaseSleTlr;

    System plain(machineParams(s, 8));
    installWorkload(plain, makeSingleCounter(microParams(s, 8, 512)));
    ASSERT_TRUE(plain.run());

    System timed(machineParams(s, 8, 500));
    installWorkload(timed, makeSingleCounter(microParams(s, 8, 512)));
    ASSERT_TRUE(timed.run());

    EXPECT_EQ(plain.completionTick(), timed.completionTick());
    EXPECT_EQ(plain.stats().dumpJson(), timed.stats().dumpJson());
}

TEST(EndToEnd, EpochCallbackSeesEveryClosedEpochOnce)
{
    EpochTimeline tl(100);
    std::vector<std::uint64_t> seen;
    tl.setEpochCallback([&](const EpochRow &e, std::uint64_t) {
        seen.push_back(e.epoch);
    });
    tl.onRecord(rec(10, TraceEvent::TxnCommit));
    tl.onRecord(rec(350, TraceEvent::TxnCommit));
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2}));
    // finish() must not invoke the callback (the progress line would
    // trail the final report otherwise), but the rows still close.
    tl.finish(350);
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(tl.epochs().size(), 4u);
}

TEST(Json, SectionCarriesSchemaEpochsAndAlerts)
{
    EpochTimeline tl(100);
    tl.onRecord(rec(10, TraceEvent::TxnCommit));
    tl.finish(120);
    std::string json = tl.json();
    EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"epoch_len\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"final_tick\": 120"), std::string::npos);
    EXPECT_NE(json.find("\"epochs\": ["), std::string::npos);
    EXPECT_NE(json.find("\"alerts\": ["), std::string::npos);
}

} // namespace
