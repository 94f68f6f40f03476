/**
 * @file
 * Allocation gate for the simulated memory path. A run allocates when
 * it first touches a line, a cache set or a queue depth, and never per
 * access or per miss after that: the MSHR pool, the write buffer, the
 * deferred queue, the probe hints and the interconnect queues all keep
 * their storage. So a run of four times the operations over the same
 * footprint makes exactly as many global operator new calls.
 *
 * The event kernel's node pool grows until it holds every pending
 * event, and each TLR elision arms a 100,000-cycle quantum timer that
 * stays pending that long. The shorter run therefore lasts past that
 * horizon (single-counter at 4096 ops in total runs about 100k
 * cycles), so that both runs reach the same peak.
 */

#include <gtest/gtest.h>

#include <string>

#include "count_new.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "workloads/registry.hh"

using namespace tlr;

namespace
{

/** operator new calls made by System::run for @p program under TLR at
 *  8 cpus; the run must complete and validate. */
std::size_t
runAllocations(const std::string &program, Protocol proto,
               std::uint64_t ops)
{
    const Scheme scheme = Scheme::BaseSleTlr;
    WorkloadParams wp;
    wp.numCpus = 8;
    wp.ops = ops;
    wp.lockKind = schemeLockKind(scheme);
    const Workload wl = makeRegisteredWorkload(program, wp);
    MachineParams mp;
    mp.numCpus = 8;
    mp.protocol = proto;
    mp.spec = schemeSpecConfig(scheme);
    System sys(mp);
    installWorkload(sys, wl);
    const std::size_t before = newCalls;
    const bool completed = sys.run();
    const std::size_t n = newCalls - before;
    EXPECT_TRUE(completed);
    EXPECT_TRUE(!wl.validate || wl.validate(sys));
    return n;
}

void
expectFlat(const std::string &program, Protocol proto, std::uint64_t ops)
{
    const std::size_t once = runAllocations(program, proto, ops);
    const std::size_t fourTimes = runAllocations(program, proto, 4 * ops);
    EXPECT_EQ(fourTimes, once)
        << program << ": " << ops << " ops made " << once
        << " allocations, " << 4 * ops << " ops made " << fourTimes;
}

} // namespace

TEST(AllocationGate, SingleCounterBroadcast)
{
    expectFlat("single-counter", Protocol::Broadcast, 4096);
}

TEST(AllocationGate, SingleCounterDirectory)
{
    expectFlat("single-counter", Protocol::Directory, 4096);
}

TEST(AllocationGate, DoublyLinkedList)
{
    expectFlat("dlist", Protocol::Broadcast, 2048);
}
