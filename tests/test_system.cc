/**
 * @file
 * Full-system integration tests: every scheme runs every
 * microbenchmark through the complete stack (cores, SLE/TLR engines,
 * MOESI snooping protocol, interconnect, memory) and the final memory
 * image is validated for correctness.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

using namespace tlr;

namespace
{

RunStats
runMicro(Scheme scheme, int cpus,
         Workload (*make)(const MicroParams &), std::uint64_t total_ops)
{
    MicroParams p;
    p.numCpus = cpus;
    p.lockKind = schemeLockKind(scheme);
    p.totalOps = total_ops;
    MachineParams mp;
    mp.numCpus = cpus;
    mp.spec = schemeSpecConfig(scheme);
    mp.maxTicks = 200'000'000ull;
    System sys(mp);
    return simulate(sys, make(p));
}

} // namespace

//
// Single-processor sanity: every scheme must produce correct data and
// terminate, with no concurrency involved.
//

class SingleCpu : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(SingleCpu, SingleCounterCorrect)
{
    RunStats r = runMicro(GetParam(), 1, makeSingleCounter, 64);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.valid);
}

TEST_P(SingleCpu, DoublyLinkedListCorrect)
{
    RunStats r = runMicro(GetParam(), 1, makeDoublyLinkedList, 32);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.valid);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SingleCpu,
    ::testing::Values(Scheme::Base, Scheme::BaseSle, Scheme::BaseSleTlr,
                      Scheme::TlrStrictTs, Scheme::Mcs),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        switch (info.param) {
          case Scheme::Base: return "Base";
          case Scheme::BaseSle: return "Sle";
          case Scheme::BaseSleTlr: return "Tlr";
          case Scheme::TlrStrictTs: return "TlrStrict";
          case Scheme::Mcs: return "Mcs";
        }
        return "Unknown";
    });

//
// Multi-processor correctness across schemes and workloads.
//

class MultiCpu
    : public ::testing::TestWithParam<std::tuple<Scheme, int>>
{
};

TEST_P(MultiCpu, MultipleCounterCorrect)
{
    auto [scheme, cpus] = GetParam();
    RunStats r = runMicro(scheme, cpus, makeMultipleCounter, 256);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.valid);
}

TEST_P(MultiCpu, SingleCounterCorrect)
{
    auto [scheme, cpus] = GetParam();
    RunStats r = runMicro(scheme, cpus, makeSingleCounter, 256);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.valid);
}

TEST_P(MultiCpu, DoublyLinkedListCorrect)
{
    auto [scheme, cpus] = GetParam();
    RunStats r = runMicro(scheme, cpus, makeDoublyLinkedList, 128);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.valid);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiCpu,
    ::testing::Combine(
        ::testing::Values(Scheme::Base, Scheme::BaseSle,
                          Scheme::BaseSleTlr, Scheme::TlrStrictTs,
                          Scheme::Mcs),
        ::testing::Values(2, 4, 8, 16)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, int>> &info) {
        const char *s = "";
        switch (std::get<0>(info.param)) {
          case Scheme::Base: s = "Base"; break;
          case Scheme::BaseSle: s = "Sle"; break;
          case Scheme::BaseSleTlr: s = "Tlr"; break;
          case Scheme::TlrStrictTs: s = "TlrStrict"; break;
          case Scheme::Mcs: s = "Mcs"; break;
        }
        return std::string(s) + "_" +
               std::to_string(std::get<1>(info.param)) + "cpu";
    });

//
// Mechanism-level expectations.
//

TEST(Mechanism, SleElidesUncontendedLocks)
{
    RunStats r = runMicro(Scheme::BaseSle, 4, makeMultipleCounter, 256);
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.valid);
    // Disjoint data: nearly every critical section commits elided.
    EXPECT_GT(r.commits, 200u);
}

TEST(Mechanism, TlrCommitsUnderHighConflict)
{
    RunStats r = runMicro(Scheme::BaseSleTlr, 8, makeSingleCounter, 256);
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.valid);
    // TLR must keep executing lock-free even with full data conflicts.
    EXPECT_GT(r.commits, 200u);
}

TEST(Mechanism, BaseNeverSpeculates)
{
    RunStats r = runMicro(Scheme::Base, 4, makeSingleCounter, 128);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.commits, 0u);
    EXPECT_EQ(r.restarts, 0u);
}

TEST(Mechanism, TlrOutperformsBaseUnderContention)
{
    RunStats base = runMicro(Scheme::Base, 8, makeSingleCounter, 512);
    RunStats tlr =
        runMicro(Scheme::BaseSleTlr, 8, makeSingleCounter, 512);
    ASSERT_TRUE(base.completed && base.valid);
    ASSERT_TRUE(tlr.completed && tlr.valid);
    EXPECT_LT(tlr.cycles, base.cycles);
}
