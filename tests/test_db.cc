/**
 * @file
 * Database workload suite tests: deterministic cross-platform Zipfian
 * key generation, the workload registry, data-integrity validation of
 * every db workload under the full scheme matrix at 8 cpus, and the
 * contention-rises-with-skew property the bench_db JSON exposes.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "metrics/collector.hh"
#include "workloads/db/db.hh"
#include "workloads/db/keydist.hh"
#include "workloads/registry.hh"

using namespace tlr;

namespace
{

// ---------------------------------------------------------------- keydist

TEST(KeyDist, SameSeedSameStream)
{
    KeyDist a(1024, 0.8, Rng(7));
    KeyDist b(1024, 0.8, Rng(7));
    for (int i = 0; i < 4096; ++i)
        ASSERT_EQ(a.next(), b.next()) << "draw " << i;
    KeyDist c(1024, 0.8, Rng(8));
    bool differs = false;
    KeyDist a2(1024, 0.8, Rng(7));
    for (int i = 0; i < 64; ++i)
        differs = differs || a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(KeyDist, DrawsStayInRange)
{
    for (double theta : {0.0, 0.6, 0.99}) {
        KeyDist kd(37, theta, Rng(11));
        for (int i = 0; i < 10000; ++i)
            ASSERT_LT(kd.next(), 37u);
    }
}

double
hottestKeyFraction(double theta, std::uint64_t seed)
{
    KeyDist kd(256, theta, Rng(seed));
    std::map<std::uint64_t, int> freq;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        ++freq[kd.next()];
    int top = 0;
    for (const auto &[k, n] : freq)
        top = std::max(top, n);
    return static_cast<double>(top) / draws;
}

/** Empirical mass of the hottest key must grow with theta. */
TEST(KeyDist, SkewMonotonicInTheta)
{
    double prevTop = -1.0;
    for (double theta : {0.0, 0.6, 0.99}) {
        double topFrac = hottestKeyFraction(theta, 123);
        EXPECT_GT(topFrac, prevTop) << "theta " << theta;
        prevTop = topFrac;
    }
    // Sanity anchors: uniform keeps the hottest key near 1/256; the
    // YCSB-default skew concentrates over 10% of draws on one key.
    EXPECT_LT(hottestKeyFraction(0.0, 5), 0.02);
    EXPECT_GT(hottestKeyFraction(0.99, 5), 0.10);
}

/** First 64 draws for a pinned (n, theta, seed) — the cross-platform
 *  stability contract. KeyDist only uses exactly-specified IEEE-754
 *  arithmetic (detPow/detLn/detExp, no libm), so these values must
 *  reproduce bit-for-bit on any conforming host. */
TEST(KeyDist, GoldenFirst64Draws)
{
    const std::uint64_t golden[64] = {
        54, 1, 2, 4, 0, 116, 1, 77, 4, 25, 1, 11, 13, 13, 33, 1,
        0, 11, 0, 39, 198, 0, 22, 25, 0, 2, 54, 70, 181, 40, 72, 98,
        30, 69, 28, 5, 0, 2, 60, 0, 14, 0, 2, 66, 34, 3, 0, 0,
        12, 213, 5, 1, 0, 3, 0, 88, 37, 17, 121, 0, 2, 207, 24, 0,
    };
    KeyDist kd(256, 0.99, Rng(42));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(kd.next(), golden[i]) << "draw " << i;

    // theta = 0 routes through Rng::below, already platform-stable.
    const std::uint64_t goldenUniform[16] = {
        149, 3, 82, 148, 242, 6, 93, 164,
        213, 174, 191, 190, 230, 183, 220, 242,
    };
    KeyDist u(256, 0.0, Rng(42));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(u.next(), goldenUniform[i]) << "draw " << i;
}

// --------------------------------------------------------------- registry

TEST(Registry, KnowsEveryLegacyNameAndDbFamily)
{
    for (const char *name :
         {"single-counter", "multiple-counter", "dlist",
          "reverse-writers", "rotated-blocks", "bank", "octree",
          "history", "mp3d-coarse", "radiosity", "hash-kv", "ycsb-a",
          "ycsb-b", "ycsb-c", "ordered-index", "partition",
          "tpcc-lite"})
        EXPECT_NE(findWorkload(name), nullptr) << name;
    EXPECT_EQ(findWorkload("no-such-workload"), nullptr);
}

TEST(Registry, SortedByCategoryThenName)
{
    const std::vector<WorkloadEntry> &reg = workloadRegistry();
    ASSERT_GT(reg.size(), 10u);
    for (size_t i = 1; i < reg.size(); ++i) {
        const WorkloadEntry &a = reg[i - 1];
        const WorkloadEntry &b = reg[i];
        EXPECT_TRUE(a.category < b.category ||
                    (a.category == b.category && a.name < b.name))
            << a.name << " vs " << b.name;
    }
    for (const WorkloadEntry &e : reg) {
        EXPECT_FALSE(e.summary.empty()) << e.name;
        EXPECT_FALSE(e.params.empty()) << e.name;
        EXPECT_TRUE(static_cast<bool>(e.make)) << e.name;
    }
}

TEST(Registry, ListTextGroupsByCategory)
{
    std::string text = workloadListText();
    // Every category header appears once, every workload listed.
    for (const WorkloadEntry &e : workloadRegistry())
        EXPECT_NE(text.find("  " + e.name), std::string::npos) << e.name;
    size_t db = text.find("database workloads");
    size_t micro = text.find("microbenchmarks");
    ASSERT_NE(db, std::string::npos);
    ASSERT_NE(micro, std::string::npos);
    EXPECT_LT(db, micro); // categories are alphabetical
}

TEST(Registry, FactoriesHonorParams)
{
    WorkloadParams p;
    p.numCpus = 4;
    p.ops = 8;
    Workload wl = makeRegisteredWorkload("ycsb-a", p);
    EXPECT_EQ(wl.name, "ycsb-a");
    EXPECT_EQ(wl.programs.size(), 4u);
    Workload idx = makeRegisteredWorkload("ordered-index", p);
    EXPECT_EQ(idx.programs.size(), 4u);
}

// ----------------------------------------------------- validator matrix

struct DbCase
{
    const char *name;
    Workload (*make)(const DbParams &);
};

const DbCase kCases[] = {
    {"hash-kv", makeHashKv},
    {"ordered-index", makeOrderedIndex},
    {"partition", makePartitionedTable},
    {"tpcc-lite", makeTpccLite},
};

/** Every db workload must complete and pass its data-integrity
 *  validator under every scheme at 8 cpus — the elision schemes may
 *  not corrupt database state. */
TEST(DbWorkloads, ValidUnderFullSchemeMatrix)
{
    for (const DbCase &c : kCases) {
        for (Scheme s :
             {Scheme::Base, Scheme::Mcs, Scheme::BaseSle,
              Scheme::BaseSleTlr, Scheme::TlrStrictTs}) {
            DbParams p;
            p.numCpus = 8;
            p.opsPerCpu = 48;
            p.lockKind = schemeLockKind(s);
            RunStats r = runScheme(s, p.numCpus, c.make(p));
            EXPECT_TRUE(r.completed) << c.name << "/" << schemeName(s);
            EXPECT_TRUE(r.valid) << c.name << "/" << schemeName(s);
            EXPECT_GT(r.cycles, 0u);
        }
    }
}

/** The YCSB presets really change the mix: the read-only C mix must
 *  run faster (fewer invalidations) than the update-heavy A mix under
 *  TLR, and all validate. */
TEST(DbWorkloads, YcsbMixesValidate)
{
    DbParams p;
    p.numCpus = 8;
    p.opsPerCpu = 64;
    p.lockKind = schemeLockKind(Scheme::BaseSleTlr);
    for (char mix : {'a', 'b', 'c'}) {
        RunStats r =
            runScheme(Scheme::BaseSleTlr, 8, makeYcsb(mix, p));
        EXPECT_TRUE(r.completed) << mix;
        EXPECT_TRUE(r.valid) << mix;
    }
}

/** Different seeds generate different op streams but still validate
 *  (the validators recompute expectations per seed). */
TEST(DbWorkloads, SeedsVaryAndValidate)
{
    for (std::uint64_t seed : {1ull, 999ull}) {
        DbParams p;
        p.numCpus = 8;
        p.opsPerCpu = 32;
        p.seed = seed;
        p.lockKind = schemeLockKind(Scheme::BaseSleTlr);
        RunStats r =
            runScheme(Scheme::BaseSleTlr, 8, makeTpccLite(p));
        EXPECT_TRUE(r.completed) << seed;
        EXPECT_TRUE(r.valid) << seed;
    }
}

// --------------------------------------------- contention rises with skew

RunStats
runTlrWithMetrics(Workload (*make)(const DbParams &), double theta)
{
    DbParams p;
    p.numCpus = 8;
    p.opsPerCpu = 128; // mirrors the bench_db grid scale
    p.theta = theta;
    p.lockKind = schemeLockKind(Scheme::BaseSleTlr);
    MachineParams mp;
    mp.numCpus = 8;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    mp.collectMetrics = true;
    return runWorkload(mp, make(p));
}

/** The property bench_db --bench-json exposes: under TLR the abort /
 *  contention profile grows with key skew. Ordered-index restarts and
 *  partition hottest-lock contention are the cleanest monotone
 *  signals (deterministic runs, so exact comparisons are stable). */
TEST(DbWorkloads, AbortProfileRisesWithTheta)
{
    std::uint64_t prevRestarts = 0;
    bool first = true;
    for (double theta : {0.0, 0.6, 0.99}) {
        RunStats r = runTlrWithMetrics(makeOrderedIndex, theta);
        ASSERT_TRUE(r.valid);
        if (!first) {
            EXPECT_GT(r.restarts, prevRestarts) << "theta " << theta;
        }
        prevRestarts = r.restarts;
        first = false;
    }

    std::uint64_t prevHot = 0;
    first = true;
    for (double theta : {0.0, 0.6, 0.99}) {
        RunStats r = runTlrWithMetrics(makePartitionedTable, theta);
        ASSERT_TRUE(r.valid);
        ASSERT_TRUE(r.metrics != nullptr);
        std::uint64_t hot = r.metrics->hottestLock().second;
        if (!first) {
            EXPECT_GT(hot, prevHot) << "theta " << theta;
        }
        prevHot = hot;
        first = false;
    }

    std::uint64_t prevDefers = 0;
    first = true;
    for (double theta : {0.0, 0.6, 0.99}) {
        RunStats r = runTlrWithMetrics(makeTpccLite, theta);
        ASSERT_TRUE(r.valid);
        if (!first) {
            EXPECT_GT(r.defers, prevDefers) << "theta " << theta;
        }
        prevDefers = r.defers;
        first = false;
    }
}

} // namespace
