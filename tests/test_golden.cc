/**
 * @file
 * Classic-kernel golden: pinned simulated results for every scheme x
 * protocol x micro-workload at 4 CPUs / 128 ops, plus TLR hash-kv on
 * a shrunken L1 whose transactions spill into the victim cache and
 * overflow it (the victim-insert and victim-full fallback paths).
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
#include <iterator>
#include <string>

#include "harness/scheme.hh"
#include "harness/system.hh"
#include "trace/sink.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace tlr;

namespace
{

/** FNV-1a (64-bit) over every field of every record, in arrival
 *  order. */
struct DigestListener : TraceListener
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint64_t records = 0;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    onRecord(const TraceRecord &r) override
    {
        ++records;
        mix(r.tick);
        mix(static_cast<std::uint64_t>(r.comp));
        mix(static_cast<std::uint64_t>(r.kind));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.cpu)));
        mix(r.addr);
        mix(r.a0);
        mix(r.a1);
        mix(r.a2);
        mix(r.a3);
        mix(r.seq);
    }
};

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
};

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
};
// clang-format on

// Five schemes x two protocols x two workloads, plus the two
// victim-cache rows.
static_assert(std::size(kGolden) == 22, "golden covers every config");

GoldenRow
runRow(const GoldenRow &want)
{
    const Scheme s = want.scheme;
    const Protocol p = want.protocol;
    const char *workload = want.workload;
    MachineParams mp;
    mp.numCpus = 4;
    mp.protocol = p;
    mp.spec = schemeSpecConfig(s);
    mp.l1.sizeBytes = want.l1Bytes;
    mp.l1.victimEntries = want.victimEntries;
    WorkloadParams wp;
    wp.numCpus = 4;
    wp.ops = 128;
    wp.lockKind = schemeLockKind(s);
    Workload wl = makeRegisteredWorkload(workload, wp);

    System sys(mp);
    DigestListener dig;
    sys.addTraceListener(&dig);
    installWorkload(sys, wl);
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
    // Rows on the default geometry that never touch the victim cache
    // omit the trailing fields.
    const GoldenRow dflt{};
    if (r.l1Bytes != dflt.l1Bytes || r.victimEntries != dflt.victimEntries ||
        r.victimInserts || r.victimFullAborts) {
        text.pop_back(); // the closing "},"
        text.pop_back();
        std::snprintf(buf, sizeof buf, ", %llu, %u, %llu, %llu},",
                      static_cast<unsigned long long>(r.l1Bytes),
                      r.victimEntries,
                      static_cast<unsigned long long>(r.victimInserts),
                      static_cast<unsigned long long>(r.victimFullAborts));
        text += buf;
    }
    return text;
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
