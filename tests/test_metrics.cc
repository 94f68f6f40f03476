/**
 * @file
 * Metrics-layer tests: histogram bucket math and percentile
 * interpolation, merge commutativity (byte-identical JSON), the JSON
 * reader, the statdiff engine, end-to-end collection through a
 * real simulation, and the zero-overhead-off contract (metrics on vs
 * off: identical cycles and counters).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "metrics/collector.hh"
#include "metrics/histogram.hh"
#include "metrics/statdiff.hh"
#include "sim/build_info.hh"
#include "sim/json.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

using namespace tlr;

TEST(Histogram, BucketBoundariesRoundTrip)
{
    // Every bucket's floor maps back to that bucket, and the value one
    // below the floor maps to the previous bucket.
    for (unsigned i = 0; i < Histogram::numBuckets; ++i) {
        std::uint64_t lo = Histogram::bucketLo(i);
        std::uint64_t hi = Histogram::bucketHi(i);
        EXPECT_EQ(Histogram::bucketIndex(lo), i) << "lo of bucket " << i;
        EXPECT_EQ(Histogram::bucketIndex(hi), i) << "hi of bucket " << i;
        if (i > 0) {
            EXPECT_EQ(Histogram::bucketLo(i), Histogram::bucketHi(i - 1) + 1)
                << "buckets " << i - 1 << "/" << i << " not contiguous";
        }
    }
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(~0ull),
              Histogram::numBuckets - 1);
    // Relative bucket width is bounded: hi <= lo * 1.25 for all
    // non-tiny buckets (4 sub-buckets per octave; exact hi is one
    // below the next floor, which double rounding may absorb).
    for (unsigned i = Histogram::subBuckets; i < Histogram::numBuckets;
         ++i) {
        double lo = static_cast<double>(Histogram::bucketLo(i));
        double hi = static_cast<double>(Histogram::bucketHi(i));
        EXPECT_LE(hi, lo * 1.25) << "bucket " << i;
    }
}

TEST(Histogram, EmptyAndSingleSample)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.percentile(50), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);

    h.record(12345);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 12345u);
    EXPECT_EQ(h.min(), 12345u);
    EXPECT_EQ(h.max(), 12345u);
    // The [min, max] clamp makes single-sample percentiles exact even
    // though the containing bucket is wide.
    EXPECT_EQ(h.percentile(0), 12345.0);
    EXPECT_EQ(h.percentile(50), 12345.0);
    EXPECT_EQ(h.percentile(99), 12345.0);
    EXPECT_EQ(h.percentile(100), 12345.0);
}

TEST(Histogram, PercentilesOnUniformRange)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.mean(), 500.5);
    // Log buckets are at most 25% wide, so interpolated percentiles
    // land within one bucket width of the exact answer.
    EXPECT_NEAR(h.percentile(50), 500, 130);
    EXPECT_NEAR(h.percentile(90), 900, 230);
    EXPECT_NEAR(h.percentile(99), 990, 250);
    EXPECT_EQ(h.percentile(100), 1000.0);
    // Monotonic in p.
    double prev = 0;
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
        double v = h.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        prev = v;
    }
}

TEST(Histogram, MergeIsCommutativeByteIdentical)
{
    Histogram a, b;
    for (std::uint64_t v = 1; v < 500; v += 3)
        a.record(v);
    for (std::uint64_t v = 100; v < 100000; v += 997)
        b.record(v, 2);

    Histogram ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.json(), ba.json());

    // Associative too: (a+b)+c == a+(b+c).
    Histogram c;
    c.record(7, 42);
    Histogram left = ab;
    left.merge(c);
    Histogram right = c;
    right.merge(b);
    right.merge(a);
    EXPECT_EQ(left.json(), right.json());

    // Merging an empty histogram is the identity.
    Histogram empty, aCopy = a;
    aCopy.merge(empty);
    EXPECT_EQ(aCopy.json(), a.json());
}

TEST(Json, ParsesSimDumps)
{
    const std::string text =
        "{\"schema_version\": 2, \"meta\": {\"compiler\": \"g++\"},\n"
        " \"counters\": {\"a.b\": 7, \"a.c\": -1.5},\n"
        " \"arr\": [1, 2, true, null, \"s\"]}";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(text, v, err)) << err;
    ASSERT_TRUE(v.isObject());
    const JsonValue *sv = v.find("schema_version");
    ASSERT_NE(sv, nullptr);
    EXPECT_EQ(sv->number, 2.0);
    const JsonValue *ab = v.find("counters")->find("a.b");
    ASSERT_NE(ab, nullptr);
    EXPECT_EQ(ab->number, 7.0);
    EXPECT_EQ(v.find("counters")->find("a.c")->number, -1.5);
    ASSERT_TRUE(v.find("arr")->isArray());
    EXPECT_EQ(v.find("arr")->elements.size(), 5u);
    EXPECT_EQ(v.find("arr")->elements[4].string, "s");

    JsonValue bad;
    EXPECT_FALSE(parseJson("{\"k\": }", bad, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseJson("", bad, err));
}

namespace
{

JsonValue
mustParse(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, v, err)) << err;
    return v;
}

} // namespace

TEST(StatDiff, FlagsThresholdAndKeyChanges)
{
    JsonValue oldDoc = mustParse(
        "{\"schema_version\": 2, \"meta\": {\"compiler\": \"x\"},"
        " \"counters\": {\"a\": 100, \"b\": 10, \"gone\": 1}}");
    JsonValue newDoc = mustParse(
        "{\"schema_version\": 2, \"meta\": {\"compiler\": \"y\"},"
        " \"counters\": {\"a\": 150, \"b\": 10, \"new\": 5}}");
    DiffOptions opt;
    opt.thresholdPct = 20;
    DiffReport rep = diffStats(oldDoc, newDoc, opt);
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.exceeded, 1u); // a: +50%
    ASSERT_EQ(rep.onlyOld.size(), 1u);
    EXPECT_EQ(rep.onlyOld[0], "counters.gone");
    ASSERT_EQ(rep.onlyNew.size(), 1u);
    EXPECT_EQ(rep.onlyNew[0], "counters.new");
    // meta differences must not appear as metric rows.
    for (const DiffRow &r : rep.rows)
        EXPECT_EQ(r.key.rfind("meta", 0), std::string::npos) << r.key;

    opt.thresholdPct = 60;
    EXPECT_EQ(diffStats(oldDoc, newDoc, opt).exceeded, 0u);
}

TEST(StatDiff, RefusesSchemaMismatch)
{
    JsonValue v2 = mustParse("{\"schema_version\": 2, \"a\": 1}");
    JsonValue v3 = mustParse("{\"schema_version\": 3, \"a\": 1}");
    JsonValue legacy = mustParse("{\"a\": 1}");

    DiffOptions opt;
    EXPECT_TRUE(diffStats(v2, v3, opt).schemaMismatch);
    EXPECT_TRUE(diffStats(v2, legacy, opt).schemaMismatch);
    // Two legacy dumps compare fine.
    EXPECT_TRUE(diffStats(legacy, legacy, opt).ok());
    EXPECT_TRUE(diffStats(v2, v2, opt).ok());
}

TEST(StatDiff, PrefixSelectsComparisonRoot)
{
    JsonValue doc = mustParse(
        "{\"baseline\": {\"x\": 100}, \"current\": {\"x\": 130}}");
    DiffOptions opt;
    opt.thresholdPct = 20;
    opt.oldPrefix = "baseline";
    opt.newPrefix = "current";
    DiffReport rep = diffStats(doc, doc, opt);
    ASSERT_TRUE(rep.ok());
    ASSERT_EQ(rep.rows.size(), 1u);
    EXPECT_EQ(rep.rows[0].key, "x");
    EXPECT_NEAR(rep.rows[0].relPct, 30.0, 1e-9);
    EXPECT_EQ(rep.exceeded, 1u);

    opt.oldPrefix = "no.such.path";
    EXPECT_FALSE(diffStats(doc, doc, opt).ok());
}

TEST(StatDiff, HostTimeKeysGateLikeAnyOtherKey)
{
    // No key is exempt from the threshold: host_threads, speedup,
    // wall time and events/sec flag exactly as simulated counts do.
    JsonValue oldDoc = mustParse(
        "{\"schema_version\": 2, \"host_threads\": 8,"
        " \"threads_4_speedup\": 3.0, \"threads_4_wall_sec\": 1.0,"
        " \"threads_4_events_per_sec\": 4e6,"
        " \"simulated_cycles\": 1000}");
    JsonValue newDoc = mustParse(
        "{\"schema_version\": 2, \"host_threads\": 1,"
        " \"threads_4_speedup\": 0.5, \"threads_4_wall_sec\": 9.0,"
        " \"threads_4_events_per_sec\": 4e5,"
        " \"simulated_cycles\": 2000}");
    DiffOptions opt;
    opt.thresholdPct = 20;
    DiffReport rep = diffStats(oldDoc, newDoc, opt);
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.exceeded, rep.rows.size());
    std::string text = renderDiff(rep, opt);
    EXPECT_EQ(text.find("host_threads differs"), std::string::npos);
    EXPECT_EQ(text.find("report-only"), std::string::npos);
}

namespace
{

MachineParams
metricsParams(Scheme s, int cpus)
{
    MachineParams mp;
    mp.numCpus = cpus;
    mp.spec = schemeSpecConfig(s);
    mp.collectMetrics = true;
    return mp;
}

Workload
counterWorkload(Scheme s, int cpus, std::uint64_t ops)
{
    MicroParams p;
    p.numCpus = cpus;
    p.lockKind = schemeLockKind(s);
    p.totalOps = ops;
    return makeSingleCounter(p);
}

} // namespace

TEST(Collector, EndToEndTlrRunProducesProfiles)
{
    RunStats r = runWorkload(metricsParams(Scheme::BaseSleTlr, 4),
                             counterWorkload(Scheme::BaseSleTlr, 4, 256));
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.valid);
    ASSERT_NE(r.metrics, nullptr);
    const MetricsSnapshot &m = *r.metrics;

    EXPECT_GT(m.records, 0u);
    EXPECT_GT(m.runTicks, 0u);
    // Committed critical sections show up in the latency histogram.
    EXPECT_GT(m.csLatency.count(), 0u);
    EXPECT_GT(m.commitLatency.count(), 0u);
    // One retries sample per finished instance: a commit or an abort
    // outcome (csLatency additionally counts real lock holds, so it is
    // not part of this identity).
    EXPECT_EQ(m.retries.count(), r.commits + m.abortLatency.count());
    // The single shared counter lock must appear in the profile with
    // the commits the scheme performed. The profile counts elided
    // *instances*, the scalar stat every elide (re-elisions, nests).
    ASSERT_FALSE(m.locks.empty());
    std::uint64_t elisions = 0, commits = 0;
    for (const auto &[addr, prof] : m.locks) {
        (void)addr;
        elisions += prof.elisions;
        commits += prof.commits;
    }
    EXPECT_GT(elisions, 0u);
    EXPECT_LE(elisions, r.elisions);
    EXPECT_EQ(commits, r.commits);
    // Interconnect accounting saw address and data traffic.
    EXPECT_GT(m.msgs[static_cast<unsigned>(MsgClass::AddrGetX)].count +
                  m.msgs[static_cast<unsigned>(MsgClass::AddrGetS)].count,
              0u);
    EXPECT_GT(m.msgs[static_cast<unsigned>(MsgClass::Data)].bytes, 0u);
    EXPECT_FALSE(m.links.empty());
    // Rendered outputs are well-formed.
    EXPECT_NE(m.summary().find("hottest locks"), std::string::npos);
    JsonValue parsed;
    std::string err;
    ASSERT_TRUE(parseJson(m.json(), parsed, err)) << err;
    EXPECT_NE(parsed.find("histograms"), nullptr);
    EXPECT_NE(parsed.find("interconnect"), nullptr);
}

TEST(Collector, SnapshotMergeMatchesCombinedJson)
{
    RunStats a = runWorkload(metricsParams(Scheme::BaseSleTlr, 2),
                             counterWorkload(Scheme::BaseSleTlr, 2, 128));
    RunStats b = runWorkload(metricsParams(Scheme::BaseSleTlr, 4),
                             counterWorkload(Scheme::BaseSleTlr, 4, 128));
    ASSERT_NE(a.metrics, nullptr);
    ASSERT_NE(b.metrics, nullptr);

    MetricsSnapshot ab = *a.metrics;
    ab.merge(*b.metrics);
    MetricsSnapshot ba = *b.metrics;
    ba.merge(*a.metrics);
    EXPECT_EQ(ab.json(), ba.json());
    EXPECT_EQ(ab.records, a.metrics->records + b.metrics->records);
    EXPECT_EQ(ab.csLatency.count(),
              a.metrics->csLatency.count() + b.metrics->csLatency.count());
}

TEST(Collector, MetricsOffIsBitIdenticalToCollection)
{
    // The zero-overhead contract, both directions: metrics off leaves
    // the sink disarmed (no emits at all), and metrics on must not
    // perturb the simulation — identical cycles and identical scalar
    // counters either way.
    for (Scheme s : {Scheme::Base, Scheme::BaseSleTlr}) {
        MachineParams off = metricsParams(s, 4);
        off.collectMetrics = false;
        MachineParams on = metricsParams(s, 4);

        System sysOff(off);
        installWorkload(sysOff, counterWorkload(s, 4, 256));
        ASSERT_TRUE(sysOff.run());
        EXPECT_EQ(sysOff.metrics(), nullptr);
        EXPECT_EQ(sysOff.traceSink().emitted(), 0u);

        System sysOn(on);
        installWorkload(sysOn, counterWorkload(s, 4, 256));
        ASSERT_TRUE(sysOn.run());
        ASSERT_NE(sysOn.metrics(), nullptr);
        EXPECT_GT(sysOn.traceSink().emitted(), 0u);

        EXPECT_EQ(sysOff.completionTick(), sysOn.completionTick())
            << schemeName(s);
        EXPECT_EQ(sysOff.stats().dumpJson(), sysOn.stats().dumpJson())
            << schemeName(s);
    }
}

TEST(BuildInfo, MetaJsonIsValidAndVersioned)
{
    EXPECT_GE(statsSchemaVersion, 2);
    JsonValue meta;
    std::string err;
    ASSERT_TRUE(parseJson(buildMetaJson(), meta, err)) << err;
    ASSERT_NE(meta.find("compiler"), nullptr);
    EXPECT_FALSE(meta.find("compiler")->string.empty());
    ASSERT_NE(meta.find("git_sha"), nullptr);
    ASSERT_NE(meta.find("build_type"), nullptr);

    // A full dump embeds the version, the meta block and the flat
    // counters and parses back.
    StatSet st;
    st.counter("g", "n") = 7;
    JsonValue doc;
    ASSERT_TRUE(parseJson(st.dumpJson(), doc, err)) << err;
    EXPECT_EQ(doc.find("schema_version")->number,
              static_cast<double>(statsSchemaVersion));
    ASSERT_NE(doc.find("counters"), nullptr);
    EXPECT_EQ(doc.find("counters")->find("g.n")->number, 7.0);
}

// The v2 -> v3 bump: embedding a metrics section switches the
// document to metricsSchemaVersion; counter-only dumps keep the v2
// layout bit-for-bit (zero-overhead-off), and the diff keeps refusing
// to diff across the two.
TEST(BuildInfo, MetricsSectionBumpsSchemaVersion)
{
    EXPECT_EQ(metricsSchemaVersion, statsSchemaVersion + 1);

    StatSet st;
    st.counter("g", "n") = 7;
    MetricsSnapshot snap;
    snap.locks[0x10000].commits = 3;
    snap.locks[0x10000].restarts = 1;

    JsonValue plain, withMetrics;
    std::string err;
    ASSERT_TRUE(parseJson(st.dumpJson(), plain, err)) << err;
    ASSERT_TRUE(parseJson(st.dumpJson("  \"metrics\": " + snap.json()),
                          withMetrics, err))
        << err;
    EXPECT_EQ(plain.find("schema_version")->number,
              static_cast<double>(statsSchemaVersion));
    EXPECT_EQ(withMetrics.find("schema_version")->number,
              static_cast<double>(metricsSchemaVersion));

    // Cross-version diff still refuses.
    DiffOptions opt;
    EXPECT_TRUE(diffStats(plain, withMetrics, opt).schemaMismatch);
}

// The v3 abort digest: derived totals, rate, and hottest-lock row in
// both the JSON and the helpers the bench digests print.
TEST(Metrics, AbortDigest)
{
    MetricsSnapshot snap;
    snap.locks[0x10040].commits = 6;
    snap.locks[0x10040].restarts = 2;
    snap.locks[0x10080].commits = 4;
    snap.locks[0x10080].restarts = 1;
    snap.locks[0x10080].defers = 5;

    EXPECT_EQ(snap.totalCommits(), 10u);
    EXPECT_EQ(snap.totalRestarts(), 3u);
    EXPECT_NEAR(snap.abortRate(), 3.0 / 13.0, 1e-9);
    auto [addr, cont] = snap.hottestLock();
    EXPECT_EQ(addr, 0x10080u);
    EXPECT_EQ(cont, 6u); // restarts + fallbacks + defers

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(snap.json(), v, err)) << err;
    const JsonValue *aborts = v.find("aborts");
    ASSERT_NE(aborts, nullptr);
    EXPECT_EQ(aborts->find("commits")->number, 10.0);
    EXPECT_EQ(aborts->find("restarts")->number, 3.0);
    EXPECT_NEAR(aborts->find("abort_rate")->number, 3.0 / 13.0, 1e-6);
    EXPECT_EQ(aborts->find("hottest_lock")->number,
              static_cast<double>(0x10080));
    EXPECT_EQ(aborts->find("hottest_lock_contention")->number, 6.0);

    // Empty snapshot: rate 0, no hottest lock.
    MetricsSnapshot idle;
    EXPECT_EQ(idle.abortRate(), 0.0);
    EXPECT_EQ(idle.hottestLock().second, 0u);
}
