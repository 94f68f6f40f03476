/**
 * @file
 * Tests for the extended workloads: bank transfers (nested ordered
 * locks, conservation witness), octree inserts (pointer-chasing
 * tree-node locking) and the history counter (a complete
 * serialization witness: every critical section's observation is
 * logged and checked for exactly-once coverage).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "workloads/extra.hh"

using namespace tlr;

namespace
{

RunStats
run(Scheme s, const Workload &wl, int cpus,
    Protocol proto = Protocol::Broadcast)
{
    MachineParams mp;
    mp.numCpus = cpus;
    mp.protocol = proto;
    mp.spec = schemeSpecConfig(s);
    mp.maxTicks = 500'000'000ull;
    return runWorkload(mp, wl);
}

/** Test name "s<scheme>c<cpus>" of a (scheme, cpus) grid point. */
std::string
gridName(const ::testing::TestParamInfo<std::tuple<Scheme, int>> &info)
{
    // Appended piecewise: GCC 12 misreads "literal" + std::string&&
    // as an overlapping copy (-Wrestrict).
    std::string name = "s";
    name += std::to_string(static_cast<int>(std::get<0>(info.param)));
    name += "c";
    name += std::to_string(std::get<1>(info.param));
    return name;
}

} // namespace

class BankGrid : public ::testing::TestWithParam<std::tuple<Scheme, int>>
{
};

TEST_P(BankGrid, BalanceConserved)
{
    auto [s, cpus] = GetParam();
    RunStats r =
        run(s, makeBankTransfer(cpus, 16, 48, schemeLockKind(s)), cpus);
    EXPECT_TRUE(r.completed) << schemeName(s);
    EXPECT_TRUE(r.valid) << schemeName(s);
}

INSTANTIATE_TEST_SUITE_P(
    All, BankGrid,
    ::testing::Combine(::testing::Values(Scheme::Base, Scheme::BaseSle,
                                         Scheme::BaseSleTlr,
                                         Scheme::TlrStrictTs,
                                         Scheme::Mcs),
                       ::testing::Values(2, 4, 8)),
    gridName);

TEST(Bank, NestedElisionCommitsBothLocks)
{
    // Under TLR both nested acquires elide: the transfer is one
    // transaction; elisions ~ 2x commits.
    RunStats r = run(Scheme::BaseSleTlr, makeBankTransfer(4, 8, 64), 4);
    ASSERT_TRUE(r.completed && r.valid);
    EXPECT_GT(r.commits, 0u);
    EXPECT_GE(r.elisions, 2 * r.commits - 8);
}

TEST(Bank, WorksOnDirectoryProtocol)
{
    RunStats r = run(Scheme::BaseSleTlr, makeBankTransfer(8, 12, 48), 8,
                     Protocol::Directory);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.valid);
}

TEST(Octree, CountsConservedUnderAllSchemes)
{
    for (Scheme s :
         {Scheme::Base, Scheme::BaseSle, Scheme::BaseSleTlr}) {
        RunStats r = run(s, makeOctreeInsert(8, 2, 64), 8);
        EXPECT_TRUE(r.completed) << schemeName(s);
        EXPECT_TRUE(r.valid) << schemeName(s);
    }
}

TEST(Octree, TlrOutperformsBaseOnContendedTree)
{
    RunStats base = run(Scheme::Base, makeOctreeInsert(8, 2, 96), 8);
    RunStats tlr = run(Scheme::BaseSleTlr, makeOctreeInsert(8, 2, 96), 8);
    ASSERT_TRUE(base.completed && base.valid);
    ASSERT_TRUE(tlr.completed && tlr.valid);
    EXPECT_LT(tlr.cycles, base.cycles);
}

class HistoryGrid
    : public ::testing::TestWithParam<std::tuple<Scheme, int>>
{
};

TEST_P(HistoryGrid, EveryValueObservedExactlyOnce)
{
    auto [s, cpus] = GetParam();
    RunStats r =
        run(s, makeHistoryCounter(cpus, 64, schemeLockKind(s)), cpus);
    EXPECT_TRUE(r.completed) << schemeName(s);
    EXPECT_TRUE(r.valid) << schemeName(s);
}

INSTANTIATE_TEST_SUITE_P(
    All, HistoryGrid,
    ::testing::Combine(::testing::Values(Scheme::Base, Scheme::BaseSle,
                                         Scheme::BaseSleTlr,
                                         Scheme::TlrStrictTs,
                                         Scheme::Mcs),
                       ::testing::Values(2, 8, 16)),
    gridName);

TEST(History, TlrSerializationWitnessUnderHeavyConflict)
{
    // 16 processors, all critical sections conflicting: the observed
    // value sequence must still be a perfect serialization.
    RunStats r =
        run(Scheme::BaseSleTlr, makeHistoryCounter(16, 64), 16);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(r.commits, 16u * 64u);
}
