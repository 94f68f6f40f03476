/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering,
 * determinism, RNG reproducibility and the stats registry.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flat_containers.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace tlr;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] { order.push_back(3); }, EventPrio::CoreTick);
    eq.schedule(7, [&] { order.push_back(1); }, EventPrio::Snoop);
    eq.schedule(7, [&] { order.push_back(4); }, EventPrio::CoreTick);
    eq.schedule(7, [&] { order.push_back(2); }, EventPrio::DataResponse);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(3, chain);
    };
    eq.schedule(0, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 12u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_THROW(eq.schedule(5, [] {}), std::logic_error);
    });
    eq.run();
}

TEST(EventQueue, MaxTickStopsEarly)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(100, [&] { ran = true; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.run(200));
    EXPECT_TRUE(ran);
}

TEST(EventQueue, StepAndPending)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, FarEventKeepsSeqOrderAfterWindowAdvance)
{
    // A goes to the far heap. Once B advances the window over A's
    // tick, C is scheduled into the wheel at the same (tick, prio):
    // A was scheduled first, so it must fire first.
    EventQueue eq;
    std::vector<char> order;
    const Tick far = 100 + EventQueue::wheelSlots - 12;
    eq.schedule(far, [&] { order.push_back('A'); });
    eq.schedule(100, [&] {
        order.push_back('B');
        eq.schedule(far, [&] { order.push_back('C'); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'B', 'A', 'C'}));
}

namespace
{

/** Reference kernel for the order test: pending callbacks in a map
 *  keyed by (when, prio, seq), seq being the schedule-call count. */
class RefQueue
{
  public:
    Tick now() const { return now_; }

    template <typename F>
    void
    schedule(Tick when, F &&f, EventPrio prio)
    {
        pending_.emplace(Key{when, static_cast<int>(prio), seq_++},
                         std::forward<F>(f));
    }

    bool
    run(Tick maxTick)
    {
        while (!pending_.empty()) {
            auto it = pending_.begin();
            if (std::get<0>(it->first) > maxTick)
                return false;
            now_ = std::get<0>(it->first);
            std::function<void()> fn = std::move(it->second);
            pending_.erase(it);
            fn();
        }
        return true;
    }

  private:
    using Key = std::tuple<Tick, int, std::uint64_t>;
    std::map<Key, std::function<void()>> pending_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
};

/**
 * Drive queue @p Q through a seeded random schedule and return what
 * happened: fired event ids in execution order, with each run()'s
 * result and the time it stopped at. An event's children are a pure
 * function of (seed, id), so two queues produce the same log exactly
 * when they fire the same events in the same order.
 */
template <typename Q>
std::vector<std::uint64_t>
randomScheduleLog(std::uint64_t seed)
{
    constexpr std::uint64_t budget = 40'000;
    constexpr Tick wheel = EventQueue::wheelSlots;
    Q q;
    std::vector<std::uint64_t> log;
    std::uint64_t nextId = 0;
    // Delta classes: same tick, near, across the wheel edge, far heap.
    auto pickDelta = [](Rng &r) -> Tick {
        switch (r.below(8)) {
          case 0: return 0;
          case 1: return r.below(4);
          case 2: return wheel - 2 + r.below(4);
          case 3: return wheel + r.below(4 * wheel);
          case 4: return r.below(wheel + 64);
          default: return 1 + r.below(40);
        }
    };
    std::function<void(Tick, EventPrio)> add = [&](Tick when,
                                                   EventPrio prio) {
        const std::uint64_t id = nextId++;
        q.schedule(
            when,
            [&, id] {
                log.push_back(id);
                Rng r(seed * 0x9e3779b97f4a7c15ull + id + 1);
                const std::uint64_t d = r.below(10);
                const unsigned kids = d < 3 ? 0 : d < 7 ? 1 : 2;
                for (unsigned k = 0; k < kids && nextId < budget; ++k) {
                    // Includes delta 0 at a lower priority than the
                    // running event.
                    add(q.now() + pickDelta(r),
                        static_cast<EventPrio>(r.below(6)));
                }
            },
            prio);
    };

    Rng outer(seed);
    for (int round = 0; round < 60; ++round) {
        const Tick now = q.now();
        for (unsigned i = 0, n = 1 + outer.below(6); i < n; ++i)
            add(now + pickDelta(outer),
                static_cast<EventPrio>(outer.below(6)));
        const Tick stop = now + outer.below(3 * wheel);
        const bool drained = q.run(stop);
        log.push_back(~std::uint64_t{0} - drained);
        log.push_back(q.now());
        if (!drained) {
            // The kernel parks its window at the next pending event,
            // beyond stop; schedule below it.
            for (unsigned i = 0, n = 1 + outer.below(4); i < n; ++i)
                add(q.now() + outer.below(stop - q.now() + 1),
                    static_cast<EventPrio>(outer.below(6)));
        }
    }
    q.run(~Tick{0});
    log.push_back(q.now());
    return log;
}

} // namespace

TEST(EventQueue, RandomScheduleMatchesReferenceOrder)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 12345u}) {
        SCOPED_TRACE(seed);
        const auto got = randomScheduleLog<EventQueue>(seed);
        const auto want = randomScheduleLog<RefQueue>(seed);
        EXPECT_GT(got.size(), 10'000u);
        EXPECT_EQ(got, want);
    }
}

TEST(FlatContainers, CpuSetIsAnAscendingBitset)
{
    CpuSet s;
    EXPECT_EQ(s.size(), 0u);
    for (int cpu : {200, 64, 0, 63, 64})
        s.insert(cpu);
    EXPECT_EQ(s.size(), 4u);
    for (int cpu : {0, 63, 64, 200})
        EXPECT_TRUE(s.contains(cpu));
    for (int cpu : {1, 62, 65, 199, 201, 4000})
        EXPECT_FALSE(s.contains(cpu));

    std::vector<int> seen;
    s.forEach([&](int cpu) { seen.push_back(cpu); });
    EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 200}));

    s.erase(64);
    s.erase(4000); // beyond the stored words: no-op
    EXPECT_EQ(s.size(), 3u);
    EXPECT_FALSE(s.contains(64));

    s.assign(63);
    seen.clear();
    s.forEach([&](int cpu) { seen.push_back(cpu); });
    EXPECT_EQ(seen, (std::vector<int>{63}));
    s.insert(32767); // tlrsim's largest cpu count
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.contains(32767));
}

TEST(FlatContainers, FlatSetKeepsUniqueKeys)
{
    FlatSet<std::uint64_t> s;
    for (std::uint64_t k : {0x40u, 0x10u, 0x40u, 0x80u})
        s.insert(k);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(s.contains(0x10));
    EXPECT_TRUE(s.contains(0x80));
    EXPECT_FALSE(s.contains(0x20));
    s.clear();
    EXPECT_EQ(s.size(), 0u);
    EXPECT_FALSE(s.contains(0x40));
}

TEST(FlatContainers, FlatSetGrowsPastItsFirstTable)
{
    FlatSet<std::uint64_t> s;
    for (std::uint64_t k = 0; k < 1000; ++k)
        s.insert(k * 64);
    EXPECT_EQ(s.size(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k)
        ASSERT_TRUE(s.contains(k * 64)) << k;
    EXPECT_FALSE(s.contains(1000 * 64));
    EXPECT_FALSE(s.contains(32)); // not line-aligned
}

TEST(FlatContainers, RingIsFifoAcrossWrapAndGrowth)
{
    Ring<int> r;
    int pushed = 0, popped = 0;
    // Interleave pushes and pops so the head wraps before each growth.
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < round % 7 + 2; ++i)
            r.push_back(pushed++);
        for (int i = 0; i < round % 5 && !r.empty(); ++i) {
            ASSERT_EQ(r.front(), popped++);
            r.pop_front();
        }
        std::vector<int> seen;
        for (int x : r)
            seen.push_back(x);
        ASSERT_EQ(seen.size(), r.size());
        for (size_t i = 0; i < seen.size(); ++i)
            ASSERT_EQ(seen[i], popped + static_cast<int>(i));
    }
    while (!r.empty()) {
        ASSERT_EQ(r.front(), popped++);
        r.pop_front();
    }
    EXPECT_EQ(popped, pushed);
}

TEST(FlatContainers, InlineVecKeepsOrderPastInlineCapacity)
{
    InlineVec<int, 3> v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < 5; ++i) {
        v.push_back(i);
        EXPECT_EQ(std::vector<int>(v.begin(), v.end()).back(), i);
    }
    EXPECT_EQ(std::vector<int>(v.begin(), v.end()),
              (std::vector<int>{0, 1, 2, 3, 4}));
    v.clear();
    EXPECT_TRUE(v.empty());
    v.push_back(7);
    EXPECT_EQ(std::vector<int>(v.begin(), v.end()), std::vector<int>{7});
}

TEST(Rng, DeterministicAndForkIndependent)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());

    Rng root(7);
    Rng c1 = root.fork(1);
    Rng c2 = root.fork(2);
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= c1.next() != c2.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Stats, CounterAndSum)
{
    StatSet s;
    s.counter("core0", "x") += 3;
    s.counter("core1", "x") += 4;
    s.counter("core1", "y") += 9;
    EXPECT_EQ(s.get("core0", "x"), 3u);
    EXPECT_EQ(s.get("core9", "x"), 0u);
    EXPECT_EQ(s.sum("core", "x"), 7u);
    EXPECT_EQ(s.sum("core", "y"), 9u);
    EXPECT_NE(s.dump("core1").find("core1.y = 9"), std::string::npos);
}
