/**
 * @file
 * Classic-kernel golden: pinned simulated results for every scheme x
 * protocol x micro-workload at 4 CPUs / 128 ops, plus TLR hash-kv on
 * a shrunken L1 whose transactions spill into the victim cache and
 * overflow it (the victim-insert and victim-full fallback paths), plus
 * four 8-CPU rows that reach L1 controller paths the others miss (see
 * kGolden).
 *
 * Telemetry golden: FNV-1a digests of every output the five trace
 * listeners render (explain text in all three modes, explain JSON,
 * metrics JSON and summary, timeline CSV and report, the raw trace
 * file's bytes, the checkers' violation warnings) and of the Chrome
 * trace export replayed from that raw trace, for TLR
 * runs of single-counter, dlist, tpcc-lite, reverse-writers (wait
 * cycles, deep causal chains and, with a short stuck bound, deferral-
 * cycle violations) and a 72-CPU single-counter.
 *
 * A configuration maps to exactly one simulated machine. Each row pins
 * the completion tick, the executed event count, the speculation and
 * bus counters and an FNV-1a digest of the full trace record stream a
 * listener sees. Any change to the model, the event kernel's ordering
 * or the trace stream moves at least one of them; a change that is
 * meant to move them must update this table and say why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "explain/explain.hh"
#include "explain/rawtrace.hh"
#include "harness/scheme.hh"
#include "harness/system.hh"
#include "metrics/collector.hh"
#include "timeline/timeline.hh"
#include "trace/lifecycle.hh"
#include "trace_digest.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace tlr;

namespace
{

struct GoldenRow
{
    Scheme scheme;
    Protocol protocol;
    const char *workload;
    Tick cycles;
    std::uint64_t events;
    std::uint64_t commits;
    std::uint64_t restarts;
    std::uint64_t busTxns;
    std::uint64_t records;
    std::uint64_t digest;
    /** L1 geometry; the defaults are MachineParams' (paper Table 2). */
    std::uint64_t l1Bytes = L1Params{}.sizeBytes;
    unsigned victimEntries = L1Params{}.victimEntries;
    std::uint64_t victimInserts = 0;
    std::uint64_t victimFullAborts = 0;
    /** Machine size; the default is the first rows'. */
    int cpus = 4;
    /** Preempt core k % cpus at tick k * preemptEvery, for
     *  preemptQuantum cycles, up to tick preemptHorizon (0 = never). */
    Tick preemptEvery = 0;
};

constexpr Tick preemptQuantum = 500;
constexpr Tick preemptHorizon = 100'000;

const char *
schemeId(Scheme s)
{
    switch (s) {
      case Scheme::Base: return "Base";
      case Scheme::BaseSle: return "BaseSle";
      case Scheme::BaseSleTlr: return "BaseSleTlr";
      case Scheme::TlrStrictTs: return "TlrStrictTs";
      case Scheme::Mcs: return "Mcs";
    }
    return "?";
}

constexpr Protocol B = Protocol::Broadcast;
constexpr Protocol D = Protocol::Directory;

// clang-format off
const GoldenRow kGolden[] = {
    {Scheme::Base, B, "single-counter", 16403, 11168, 0, 0, 1208, 7503, 0x8d099cb378e50476ull},
    {Scheme::Base, B, "dlist", 48374, 46926, 0, 0, 3313, 20774, 0x1f7a3fc12f91557aull},
    {Scheme::Base, D, "single-counter", 15862, 11911, 0, 0, 1183, 8677, 0x44f6b8e505c24b89ull},
    {Scheme::Base, D, "dlist", 44895, 45314, 0, 0, 3127, 23505, 0xd324732d4cd60aa0ull},
    {Scheme::BaseSle, B, "single-counter", 16443, 11359, 7, 37, 1207, 7650, 0xcd81fc4017241cdaull},
    {Scheme::BaseSle, B, "dlist", 46802, 48223, 6, 67, 3172, 20299, 0x28367a8405776218ull},
    {Scheme::BaseSle, D, "single-counter", 15931, 12690, 6, 37, 1211, 9108, 0xe88d8f8fbfacb17dull},
    {Scheme::BaseSle, D, "dlist", 46381, 49177, 3, 66, 3206, 24411, 0x22f7040c27f65aa8ull},
    {Scheme::BaseSleTlr, B, "single-counter", 3633, 3583, 128, 3, 136, 2301, 0x3c6de97616d234b4ull},
    {Scheme::BaseSleTlr, B, "dlist", 14875, 9349, 256, 3, 658, 7700, 0x6af5dbf0234daab7ull},
    {Scheme::BaseSleTlr, D, "single-counter", 3619, 3713, 128, 3, 136, 2449, 0x2ea1dfbccdcdd524ull},
    {Scheme::BaseSleTlr, D, "dlist", 14607, 9939, 256, 3, 658, 8357, 0x2fdd568ed4254930ull},
    {Scheme::TlrStrictTs, B, "single-counter", 4936, 4128, 128, 60, 189, 3059, 0xd5a45efa702041adull},
    {Scheme::TlrStrictTs, B, "dlist", 16768, 9830, 256, 60, 697, 8135, 0x69a6166953ee6923ull},
    {Scheme::TlrStrictTs, D, "single-counter", 5304, 4498, 128, 77, 207, 3474, 0xf04902aba45c605dull},
    {Scheme::TlrStrictTs, D, "dlist", 16633, 10479, 256, 61, 699, 8854, 0xc89d0774219f2b90ull},
    {Scheme::Mcs, B, "single-counter", 15406, 26803, 0, 0, 776, 5421, 0x22fb67d1cfa9f705ull},
    {Scheme::Mcs, B, "dlist", 48264, 109211, 0, 0, 2001, 13915, 0x583790320c8be2ull},
    {Scheme::Mcs, D, "single-counter", 15044, 26936, 0, 0, 776, 6438, 0xe1e19e61f5aff99ull},
    {Scheme::Mcs, D, "dlist", 47048, 108395, 0, 0, 2001, 16438, 0xeddc5d853815c0d9ull},
    {Scheme::BaseSleTlr, B, "hash-kv", 45100, 34055, 139, 47, 2733, 17375, 0xa1e6f2f012c01eabull, 4096, 2, 32, 45},
    {Scheme::BaseSleTlr, D, "hash-kv", 45335, 37166, 135, 48, 2839, 18888, 0xf40d1f1183ed82d5ull, 4096, 2, 29, 46},
    // L1 controller paths no row above reaches. MCS on nested account
    // locks: compare-and-swap fills, failing ones included, and a CAS
    // miss recorded in an ownership chain.
    {Scheme::Mcs, D, "bank", 72920, 271857, 0, 0, 7126, 60194, 0xb8b6a74d289956c3ull, 131072, 16, 0, 0, 8},
    // SLE on the same locks: a writer invalidates a Shared copy still
    // marked by a transaction that has already left speculation.
    {Scheme::BaseSle, D, "bank", 59206, 210849, 698, 368, 7118, 62331, 0x69b17ed1979027efull, 131072, 16, 0, 0, 8},
    // Strict timestamps on the Figure 6 chain: a restarted access that
    // queues behind its squashed miss yields at once.
    {Scheme::TlrStrictTs, D, "rotated-blocks", 268518, 176370, 1024, 8551, 12973, 207244, 0xf93255edcdd9e071ull, 131072, 16, 0, 0, 8},
    // Strict timestamps under preemption: a probe reaches a pending
    // owner whose transaction was preempted.
    {Scheme::TlrStrictTs, D, "reverse-writers", 215394, 141069, 1024, 7584, 10283, 171011, 0x8310ac282a8ddd24ull, 131072, 16, 0, 0, 8, 2000},
};
// clang-format on

// Five schemes x two protocols x two workloads, the two victim-cache
// rows and the four 8-CPU rows.
static_assert(std::size(kGolden) == 26, "golden covers every config");

GoldenRow
runRow(const GoldenRow &want)
{
    const Scheme s = want.scheme;
    const Protocol p = want.protocol;
    const char *workload = want.workload;
    MachineParams mp;
    mp.numCpus = want.cpus;
    mp.protocol = p;
    mp.spec = schemeSpecConfig(s);
    mp.l1.sizeBytes = want.l1Bytes;
    mp.l1.victimEntries = want.victimEntries;
    WorkloadParams wp;
    wp.numCpus = want.cpus;
    wp.ops = 128;
    wp.lockKind = schemeLockKind(s);
    Workload wl = makeRegisteredWorkload(workload, wp);

    System sys(mp);
    DigestListener dig;
    sys.addTraceListener(&dig);
    installWorkload(sys, wl);
    for (Tick k = 1; want.preemptEvery && k * want.preemptEvery <=
                                              preemptHorizon;
         ++k)
        sys.preemptCore(static_cast<int>(k % want.cpus),
                        k * want.preemptEvery, preemptQuantum);
    EXPECT_TRUE(sys.run());
    EXPECT_TRUE(wl.validate(sys));

    GoldenRow out{s, p, workload, 0, 0, 0, 0, 0, 0, 0};
    out.cycles = sys.completionTick();
    out.events = sys.eventQueue().executed();
    out.commits = sys.stats().sum("spec", "commits");
    out.restarts = sys.stats().sum("spec", "restarts");
    out.busTxns = sys.stats().get("bus", "transactions");
    out.records = dig.records;
    out.digest = dig.h;
    out.l1Bytes = want.l1Bytes;
    out.victimEntries = want.victimEntries;
    out.victimInserts = sys.stats().sum("l1_", "victimInserts");
    out.victimFullAborts = sys.stats().sum("spec", "abort.victim-full");
    out.cpus = want.cpus;
    out.preemptEvery = want.preemptEvery;
    return out;
}

std::string
rowText(const GoldenRow &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{Scheme::%s, %c, \"%s\", %llu, %llu, %llu, %llu, %llu, "
                  "%llu, 0x%llxull},",
                  schemeId(r.scheme),
                  r.protocol == Protocol::Broadcast ? 'B' : 'D', r.workload,
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.commits),
                  static_cast<unsigned long long>(r.restarts),
                  static_cast<unsigned long long>(r.busTxns),
                  static_cast<unsigned long long>(r.records),
                  static_cast<unsigned long long>(r.digest));
    std::string text = buf;
    // Rows on the default geometry and machine that never touch the
    // victim cache omit the trailing fields.
    const GoldenRow dflt{};
    const bool machine =
        r.cpus != dflt.cpus || r.preemptEvery != dflt.preemptEvery;
    if (machine || r.l1Bytes != dflt.l1Bytes ||
        r.victimEntries != dflt.victimEntries || r.victimInserts ||
        r.victimFullAborts) {
        text.resize(text.size() - 2); // the closing "},"
        std::snprintf(buf, sizeof buf, ", %llu, %u, %llu, %llu},",
                      static_cast<unsigned long long>(r.l1Bytes),
                      r.victimEntries,
                      static_cast<unsigned long long>(r.victimInserts),
                      static_cast<unsigned long long>(r.victimFullAborts));
        text += buf;
    }
    if (machine) {
        text.resize(text.size() - 2);
        std::snprintf(buf, sizeof buf, ", %d", r.cpus);
        text += buf;
        if (r.preemptEvery != dflt.preemptEvery) {
            std::snprintf(buf, sizeof buf, ", %llu",
                          static_cast<unsigned long long>(r.preemptEvery));
            text += buf;
        }
        text += "},";
    }
    return text;
}

/** FNV-1a (64-bit) over the bytes of @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One TLR run with every listener attached, and the digest of each
 *  output it renders. */
struct TelemetryRow
{
    const char *workload;
    int cpus;
    std::uint64_t ops;
    double theta;
    Tick cycleStuckTicks; ///< 0 = the checker's derived bound
    std::uint64_t violations;
    std::uint64_t explainTxn;
    std::uint64_t explainLock;
    std::uint64_t explainCpu;
    std::uint64_t explainJson;
    std::uint64_t metricsJson;
    std::uint64_t metricsSummary;
    std::uint64_t timelineCsv;
    std::uint64_t timelineReport;
    std::uint64_t rawTrace;
    std::uint64_t warnings;
    /** TxnLifecycle's Chrome trace of the raw trace replayed: what
     *  `tlrquery --chrome-trace` writes. */
    std::uint64_t chromeTrace;
};

// clang-format off
const TelemetryRow kTelemetry[] = {
    {"single-counter", 8, 512, 0.6, 0, 0, 0x88ccc50ac2322da4ull, 0xa5c2b8cd1e772594ull, 0x6001a94dd6d2f4cfull, 0x67f719acb88cd6b4ull, 0x2a66222914b98c26ull, 0x8d795efdf3fa00c7ull, 0xfa77c6c01a5067c3ull, 0x26d15f84d5f64d57ull, 0x395d13515e83355cull, 0xcbf29ce484222325ull, 0xfe7d47117de5b9aaull},
    {"dlist", 8, 256, 0.6, 0, 0, 0x527a691483619cfcull, 0x985d6f8d53dbe642ull, 0x67d807946ccedcc5ull, 0x7457768695158269ull, 0x2736e4151a506df5ull, 0x247c2190e2403cf1ull, 0x478ac15eb76e869cull, 0xf243da7e016426b0ull, 0x4310fafe0c68407cull, 0xcbf29ce484222325ull, 0xd5455a102433f7acull},
    {"tpcc-lite", 8, 48, 0.99, 0, 0, 0xad776fab735ad772ull, 0xf1e931253cc21e2aull, 0xdfa2190a6376122cull, 0x41067dcf7eeda3f7ull, 0x1032299a302a092bull, 0x2f2d759fe4282c12ull, 0xfd4e45842d7ed806ull, 0x732ca971ed38baf4ull, 0x50a7dd16c2631ddfull, 0xcbf29ce484222325ull, 0xc6ee4e63479806b0ull},
    {"reverse-writers", 4, 24, 0.6, 0, 0, 0xe1dec9c6e1c974c7ull, 0x25ef8d09aa0a78aull, 0x454ff93799d5eeb2ull, 0xc60cc2e49572e166ull, 0x2b59c53423de046eull, 0x261105bf02686342ull, 0x5ae30c09f3994079ull, 0xc89957dbda44081bull, 0xa12f9cf24c43316full, 0xcbf29ce484222325ull, 0x60cf8ba96e6477b3ull},
    {"reverse-writers", 8, 16, 0.6, 300, 4, 0x2e6e33eaebca0edeull, 0x74d5e56291bb2eefull, 0x74972ff390925db4ull, 0xd500ec4d089c5b3ull, 0x652c3f7151182a9full, 0x6db2b90de5ec85e0ull, 0xb545c9baac5afe79ull, 0x96ad3e4cf7bd1279ull, 0x908ac6d620565f0bull, 0xf356c2b65643d903ull, 0xccc8f84c9fb0488bull},
    {"single-counter", 72, 256, 0.6, 0, 0, 0x4ee88c6345ebbbabull, 0xd82a6485f98fd41cull, 0x8895815f2976d78ull, 0xc7d8833d24f05ad0ull, 0xdd00ad246463414bull, 0x78da96f21d5fb495ull, 0x7d701c858dfb6549ull, 0xd98fed3da0647216ull, 0xc27c7b2b4ea925afull, 0xcbf29ce484222325ull, 0x6c5bbe27497391c0ull},
    {"reverse-writers", 72, 4, 0.6, 20, 4, 0x5e697452c1f301eull, 0xa6f722157a663c0cull, 0xb1806c54ead6f0e1ull, 0xf1c7c4b5a16578faull, 0xbcde0a85d461caddull, 0x8f7b85eafb69f38dull, 0xa6bb700c4f5f18f3ull, 0x52b70f7543144bb3ull, 0x7fb61c0dfe727cb1ull, 0x8bd2673f64afc490ull, 0x2a629d0ad2298ce8ull},
};
// clang-format on

TelemetryRow
runTelemetryRow(const TelemetryRow &want)
{
    MachineParams mp;
    mp.numCpus = want.cpus;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    mp.trace.ringCapacity = 4096;
    mp.trace.checkInvariants = true;
    mp.trace.keepGoingOnViolation = true;
    mp.trace.cycleStuckTicks = want.cycleStuckTicks;
    mp.collectMetrics = true;
    mp.explain = true;
    mp.timelineEpoch = 1000;
    WorkloadParams wp;
    wp.numCpus = want.cpus;
    wp.ops = want.ops;
    wp.theta = want.theta;
    wp.lockKind = schemeLockKind(Scheme::BaseSleTlr);
    Workload wl = makeRegisteredWorkload(want.workload, wp);

    const std::string rawPath = testing::TempDir() + "golden_telemetry.bin";
    System sys(mp);
    RawTraceWriter raw;
    EXPECT_EQ(raw.open(rawPath), "");
    sys.addTraceListener(&raw);
    installWorkload(sys, wl);
    testing::internal::CaptureStderr();
    EXPECT_TRUE(sys.run());
    const std::string warnings = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(wl.validate(sys));
    raw.close();
    std::ifstream in(rawPath, std::ios::binary);
    std::stringstream rawBytes;
    rawBytes << in.rdbuf();

    TelemetryRow out = want;
    const Explainer &ex = *sys.explainer();
    out.violations = sys.stats().get("trace", "violations");
    out.explainTxn = fnv1a(ex.report(ExplainMode::Txn));
    out.explainLock = fnv1a(ex.report(ExplainMode::Lock));
    out.explainCpu = fnv1a(ex.report(ExplainMode::Cpu));
    out.explainJson = fnv1a(ex.json());
    out.metricsJson = fnv1a(sys.metrics()->snapshot().json());
    out.metricsSummary = fnv1a(sys.metrics()->snapshot().summary());
    out.timelineCsv = fnv1a(sys.timeline()->csv());
    out.timelineReport = fnv1a(sys.timeline()->report());
    out.rawTrace = fnv1a(rawBytes.str());
    out.warnings = fnv1a(warnings);
    RawTraceReader reader;
    EXPECT_EQ(reader.open(rawPath), "");
    TxnLifecycle lifecycle;
    reader.replay(lifecycle);
    std::ostringstream chrome;
    lifecycle.exportChromeTrace(chrome);
    out.chromeTrace = fnv1a(chrome.str());
    return out;
}

std::string
telemetryRowText(const TelemetryRow &r)
{
    char buf[704];
    std::snprintf(
        buf, sizeof buf,
        "{\"%s\", %d, %llu, %g, %llu, %llu, 0x%llxull, 0x%llxull, "
        "0x%llxull, 0x%llxull, 0x%llxull, 0x%llxull, 0x%llxull, "
        "0x%llxull, 0x%llxull, 0x%llxull, 0x%llxull},",
        r.workload, r.cpus, static_cast<unsigned long long>(r.ops),
        r.theta, static_cast<unsigned long long>(r.cycleStuckTicks),
        static_cast<unsigned long long>(r.violations),
        static_cast<unsigned long long>(r.explainTxn),
        static_cast<unsigned long long>(r.explainLock),
        static_cast<unsigned long long>(r.explainCpu),
        static_cast<unsigned long long>(r.explainJson),
        static_cast<unsigned long long>(r.metricsJson),
        static_cast<unsigned long long>(r.metricsSummary),
        static_cast<unsigned long long>(r.timelineCsv),
        static_cast<unsigned long long>(r.timelineReport),
        static_cast<unsigned long long>(r.rawTrace),
        static_cast<unsigned long long>(r.warnings),
        static_cast<unsigned long long>(r.chromeTrace));
    return buf;
}

} // namespace

TEST(ClassicGolden, EveryConfigMatchesPinnedRow)
{
    for (const GoldenRow &want : kGolden) {
        GoldenRow got = runRow(want);
        EXPECT_EQ(rowText(got), rowText(want));
    }
}

TEST(ClassicGolden, VictimRowsReachTheVictimCacheAndOverflowIt)
{
    unsigned victimRows = 0;
    for (const GoldenRow &want : kGolden) {
        if (want.victimEntries == GoldenRow{}.victimEntries)
            continue;
        ++victimRows;
        EXPECT_GT(want.victimInserts, 0u) << want.workload;
        EXPECT_GT(want.victimFullAborts, 0u) << want.workload;
    }
    EXPECT_EQ(victimRows, 2u);
}

TEST(TelemetryGolden, EveryListenerOutputMatchesPinnedDigest)
{
    for (const TelemetryRow &want : kTelemetry) {
        TelemetryRow got = runTelemetryRow(want);
        EXPECT_EQ(telemetryRowText(got), telemetryRowText(want));
    }
}
