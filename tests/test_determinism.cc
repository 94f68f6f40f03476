/**
 * @file
 * Determinism and event-pool regression tests for the host-performance
 * kernel: identical configs must produce byte-identical stats dumps,
 * parallel sweeps must equal serial sweeps, and the pooled event
 * representation (inline vs spilled captures, timing wheel vs far
 * heap, reset()) must behave as documented.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "sim/event_queue.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

using namespace tlr;

namespace
{

MicroParams
microParams(Scheme s, int cpus, std::uint64_t ops)
{
    MicroParams p;
    p.numCpus = cpus;
    p.lockKind = schemeLockKind(s);
    p.totalOps = ops;
    return p;
}

MachineParams
machineParams(Scheme s, int cpus)
{
    MachineParams mp;
    mp.numCpus = cpus;
    mp.spec = schemeSpecConfig(s);
    return mp;
}

// Run one config to completion and return the full stats JSON dump.
std::string
statsJson(Scheme s, int cpus, std::uint64_t ops)
{
    System sys(machineParams(s, cpus));
    installWorkload(sys, makeSingleCounter(microParams(s, cpus, ops)));
    EXPECT_TRUE(sys.run());
    return sys.stats().dumpJson();
}

} // namespace

TEST(Determinism, SameConfigTwiceByteIdenticalStats)
{
    for (Scheme s : {Scheme::Base, Scheme::BaseSleTlr}) {
        std::string a = statsJson(s, 8, 512);
        std::string b = statsJson(s, 8, 512);
        EXPECT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "scheme " << schemeName(s);
    }
}

TEST(Determinism, SweepSerialEqualsParallel)
{
    auto makeTasks = [] {
        std::vector<SweepTask> tasks;
        for (Scheme s : {Scheme::Base, Scheme::Mcs, Scheme::BaseSleTlr})
            for (int n : {2, 4, 8})
                tasks.push_back(makeSweepTask(
                    std::string(schemeName(s)) + "/p" + std::to_string(n),
                    machineParams(s, n),
                    makeMultipleCounter(microParams(s, n, 512))));
        return tasks;
    };
    auto serial = runSweep(makeTasks(), 1);
    auto parallel = runSweep(makeTasks(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const RunStats &a = serial[i].stats;
        const RunStats &b = parallel[i].stats;
        EXPECT_EQ(a.completed, b.completed) << i;
        EXPECT_EQ(a.valid, b.valid) << i;
        EXPECT_EQ(a.cycles, b.cycles) << i;
        EXPECT_EQ(a.commits, b.commits) << i;
        EXPECT_EQ(a.restarts, b.restarts) << i;
        EXPECT_EQ(a.busTransactions, b.busTransactions) << i;
        EXPECT_EQ(a.l1Misses, b.l1Misses) << i;
        EXPECT_EQ(a.kernelEvents, b.kernelEvents) << i;
    }
}

TEST(Determinism, FullRunStatsJsonStableAcrossRepeats)
{
    // Harness-level: runWorkload twice, compare the one-line summary
    // fields the figures are built from.
    MachineParams mp = machineParams(Scheme::BaseSleTlr, 4);
    Workload wl =
        makeDoublyLinkedList(microParams(Scheme::BaseSleTlr, 4, 256));
    RunStats a = runWorkload(mp, wl);
    RunStats b = runWorkload(mp, wl);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.kernelEvents, b.kernelEvents);
}

TEST(EventPool, SmallCapturesStayInline)
{
    EventQueue eq;
    std::uint64_t before = eq.kernelStats().spilledEvents;
    std::uint64_t inlineBefore = eq.kernelStats().inlineEvents;
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(i, [&fired] { ++fired; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.kernelStats().spilledEvents, before);
    EXPECT_EQ(eq.kernelStats().inlineEvents, inlineBefore + 100);
}

TEST(EventPool, OversizedCapturesSpillAndStillRun)
{
    struct Big
    {
        char bytes[256];
    };
    EventQueue eq;
    std::uint64_t spillBefore = eq.kernelStats().spilledEvents;
    Big big{};
    big.bytes[0] = 42;
    big.bytes[255] = 7;
    int sum = 0;
    eq.schedule(1, [big, &sum] { sum = big.bytes[0] + big.bytes[255]; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(sum, 49);
    EXPECT_EQ(eq.kernelStats().spilledEvents, spillBefore + 1);
}

TEST(EventPool, SpilledCaptureDestructorRunsOnReset)
{
    struct Tracker
    {
        int *count;
        char pad[200]; // force the spill path
        explicit Tracker(int *c) : count(c), pad{} { ++*count; }
        Tracker(const Tracker &o) : count(o.count), pad{} { ++*count; }
        ~Tracker() { --*count; }
    };
    int live = 0;
    {
        EventQueue eq;
        Tracker t(&live);
        eq.schedule(5, [t] { (void)t; });
        EXPECT_GE(live, 2);
        eq.reset(); // must destroy the pending spilled capture
        EXPECT_EQ(live, 1);
    }
    EXPECT_EQ(live, 0); // stack copy destroyed at scope exit, no leaks
}

TEST(EventPool, WheelHeapBoundaryOrdering)
{
    // Mix of near events (inside the 512-tick wheel window), events at
    // the exact boundary, and far events that start on the heap and
    // migrate into the wheel as time advances.
    EventQueue eq;
    std::vector<Tick> order;
    auto at = [&](Tick t) { eq.schedule(t, [&order, t] { order.push_back(t); }); };
    at(3);
    at(511);           // last wheel slot of the initial window
    at(512);           // first far event
    at(513);
    at(5000);          // deep in the far heap
    at(1024);          // exactly one window ahead
    at(0);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order,
              (std::vector<Tick>{0, 3, 511, 512, 513, 1024, 5000}));
    EXPECT_EQ(eq.now(), Tick{5000});
}

TEST(EventPool, FarEventsCanScheduleNearEvents)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(2000, [&] {
        order.push_back(1);
        eq.scheduleIn(1, [&] { order.push_back(2); });
        eq.scheduleIn(600, [&] { order.push_back(3); }); // far again
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), Tick{2600});
}

TEST(EventPool, ResetClearsExecutedStopAndPendingEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] {
        ++fired;
        eq.requestStop();
    });
    eq.schedule(3, [&] { ++fired; }); // never runs: stop requested
    EXPECT_TRUE(eq.run()); // stop counts as an orderly finish
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.executed(), 2u);

    eq.reset();
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_EQ(eq.now(), Tick{0});
    EXPECT_TRUE(eq.empty());

    // The dropped tick-3 event must not fire after reset, stop state
    // must be cleared, and time restarts from zero.
    int after = 0;
    eq.schedule(4, [&] { ++after; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(after, 1);
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.now(), Tick{4});
}

TEST(EventPool, PoolRecyclesNodesAcrossRuns)
{
    // Steady-state scheduling should reuse pooled nodes: chunk count
    // stops growing once the working set fits.
    EventQueue eq;
    std::function<void()> chain;
    int fired = 0;
    chain = [&] {
        if (++fired < 10000)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    EXPECT_TRUE(eq.run());
    std::uint64_t chunks = eq.kernelStats().poolChunks;
    EXPECT_GE(chunks, 1u);
    // One live event at a time -> a single 64-node chunk suffices.
    EXPECT_LE(chunks, 2u);
}
