/**
 * @file
 * L1Controller unit tests with scriptable speculation hooks: drive
 * the controller directly (two controllers on a real broadcast
 * interconnect + memory) and check the TLR decision logic — deferral
 * vs restart by timestamp, un-timestamped request policy, strict-mode
 * enforcement, deferred-queue service at commit/abort, the
 * transaction footprint lists — without the core/engine stack on top.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/interconnect.hh"
#include "coherence/l1_controller.hh"
#include "coherence/memory_controller.hh"
#include "mem/backing_store.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

using namespace tlr;

namespace
{

/** Scriptable SpecHooks: the test sets the mode/timestamp and records
 *  every callback the controller makes. */
class FakeHooks : public SpecHooks
{
  public:
    bool spec = false;
    bool tlr = false;
    bool strict = false;
    bool deferUnts = true;
    Timestamp ts;

    std::vector<AbortReason> aborts;
    std::vector<std::pair<CacheOp, std::uint64_t>> completions;
    L1Controller *l1 = nullptr; ///< set after construction

    bool specActive() const override { return spec; }
    bool tlrActive() const override { return spec && tlr; }
    Timestamp currentTs() const override { return ts; }
    bool strictTimestamps() const override { return strict; }
    bool deferUntimestamped() const override { return deferUnts; }
    void noteConflictTs(const Timestamp &) override {}

    void
    conflictAbort(Addr, AbortReason reason) override
    {
        aborts.push_back(reason);
        spec = false; // engine leaves speculation...
        l1->abortTransaction();
    }

    void
    resourceAbort(Addr, AbortReason reason) override
    {
        aborts.push_back(reason);
        spec = false;
        l1->abortTransaction();
    }

    void specMshrDrained(Addr) override {}

    void
    cacheOpDone(const CacheOp &op, std::uint64_t value) override
    {
        completions.emplace_back(op, value);
    }
};

struct Rig
{
    EventQueue eq;
    StatSet stats;
    BackingStore store{1 << 16};
    BroadcastInterconnect net{eq, stats, InterconnectParams{}};
    MemoryController mem{eq, stats, net, store, MemParams{}};
    FakeHooks hooks0, hooks1;
    L1Params l1Params;
    L1Controller l1a{eq, stats, 0, l1Params, net, mem, hooks0};
    L1Controller l1b{eq, stats, 1, l1Params, net, mem, hooks1};

    explicit Rig(L1Params p = L1Params{}) : l1Params(p)
    {
        net.setMemory(&mem);
        net.addSnooper(&l1a);
        net.addSnooper(&l1b);
        hooks0.l1 = &l1a;
        hooks1.l1 = &l1b;
    }

    void
    run()
    {
        ASSERT_TRUE(eq.run(1'000'000));
    }

    void
    access(L1Controller &c, CacheOp::Kind kind, Addr addr,
           std::uint64_t data = 0, bool spec = false)
    {
        CacheOp op;
        op.kind = kind;
        op.addr = addr;
        op.data = data;
        op.spec = spec;
        c.access(op);
    }
};

constexpr Addr lineA = 0x4000;

} // namespace

TEST(Controller, MissFillsFromMemoryExclusive)
{
    Rig r;
    r.store.writeWord(lineA, 99);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA);
    r.run();
    ASSERT_EQ(r.hooks0.completions.size(), 1u);
    EXPECT_EQ(r.hooks0.completions[0].second, 99u);
    EXPECT_EQ(r.l1a.lineState(lineA), CohState::Exclusive);
}

TEST(Controller, TlrOwnerDefersLaterTimestamp)
{
    Rig r;
    // cpu0: transactional exclusive copy with the earlier timestamp.
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    // cpu1: conflicting transactional GetX with a later timestamp.
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(5, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.eq.run(2'000); // bounded: cpu1 is deferred, so no completion
    EXPECT_EQ(r.l1a.deferredCount(), 1u);
    EXPECT_TRUE(r.hooks0.aborts.empty());
    EXPECT_TRUE(r.hooks1.completions.empty());
    // Commit at cpu0 services the deferred request.
    WriteBuffer wb(4);
    r.hooks0.spec = false;
    r.l1a.commitTransaction(wb);
    r.run();
    EXPECT_EQ(r.l1a.deferredCount(), 0u);
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.l1b.lineState(lineA), CohState::Modified);
    EXPECT_EQ(r.l1a.lineState(lineA), CohState::Invalid);
}

TEST(Controller, StrictModeRestartsOnEarlierTimestamp)
{
    Rig r;
    // cpu0 holds the line transactionally with the LATER timestamp and
    // strict timestamp enforcement.
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.strict = true;
    r.hooks0.ts = Timestamp::make(9, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    // cpu1 requests with the earlier timestamp: cpu0 must lose now.
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(2, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.run();
    ASSERT_EQ(r.hooks0.aborts.size(), 1u);
    EXPECT_EQ(r.hooks0.aborts[0], AbortReason::ConflictLost);
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.l1b.lineState(lineA), CohState::Modified);
}

TEST(Controller, UntimestampedRequestDeferredByPolicy)
{
    Rig r;
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(3, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    // Non-transactional store from cpu1 (no timestamp): with the defer
    // policy it waits; the transaction is not disturbed.
    r.access(r.l1b, CacheOp::Kind::Store, lineA, 42, false);
    r.eq.run(2'000);
    EXPECT_EQ(r.l1a.deferredCount(), 1u);
    EXPECT_TRUE(r.hooks0.aborts.empty());
    WriteBuffer wb(4);
    r.hooks0.spec = false;
    r.l1a.commitTransaction(wb);
    r.run();
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.l1b.peekWord(lineA), 42u);
}

TEST(Controller, UntimestampedRequestAbortsByPolicy)
{
    Rig r;
    r.hooks0.deferUnts = false; // paper's first approach: treat as race
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(3, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    r.access(r.l1b, CacheOp::Kind::Store, lineA, 42, false);
    r.run();
    ASSERT_GE(r.hooks0.aborts.size(), 1u);
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.l1b.peekWord(lineA), 42u);
}

TEST(Controller, SleOnlyAlwaysRestartsOnConflict)
{
    Rig r;
    r.hooks0.spec = true; // SLE without TLR: cannot defer
    r.hooks0.tlr = false;
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(9, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.run();
    ASSERT_EQ(r.hooks0.aborts.size(), 1u);
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
}

TEST(Controller, AbortServicesDeferredWithPreTransactionalData)
{
    Rig r;
    r.store.writeWord(lineA, 7); // pre-transactional value
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.run();
    // Later-ts reader is deferred...
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(4, 1);
    r.access(r.l1b, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.eq.run(2'000);
    ASSERT_EQ(r.l1a.deferredCount(), 1u);
    // ...then the transaction aborts: the reader must observe the
    // pre-transactional value (speculative data lived in the write
    // buffer and is discarded, never exposed).
    r.hooks0.spec = false;
    r.l1a.abortTransaction();
    r.run();
    ASSERT_EQ(r.hooks1.completions.size(), 1u);
    EXPECT_EQ(r.hooks1.completions[0].second, 7u);
}

TEST(Controller, LinkRegisterClearedByRemoteWrite)
{
    Rig r;
    CacheOp ll;
    ll.kind = CacheOp::Kind::LoadShared;
    ll.addr = lineA;
    ll.isLl = true;
    r.l1a.access(ll);
    r.run();
    EXPECT_TRUE(r.l1a.linkValid(lineA));
    r.access(r.l1b, CacheOp::Kind::Store, lineA, 1, false);
    r.run();
    EXPECT_FALSE(r.l1a.linkValid(lineA));
}

TEST(Controller, DebugStateRendersMshrsAndDeferred)
{
    Rig r;
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadExclusive, lineA, 0, true);
    r.run();
    r.hooks1.spec = r.hooks1.tlr = true;
    r.hooks1.ts = Timestamp::make(4, 1);
    r.access(r.l1b, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
    r.eq.run(2'000);
    std::string dump = r.l1a.debugState();
    EXPECT_NE(dump.find("DEFERRED"), std::string::npos);
}

//
// ---- transaction footprint lists ---------------------------------------
//

namespace
{

/** 4 KB, 4 ways: 16 sets, so lines 1 KB apart share a set. */
L1Params
smallL1()
{
    L1Params p;
    p.sizeBytes = 4 * 1024;
    return p;
}

constexpr Addr setStride = 0x400;

/** The line at @p addr carries no access bit and no pin (or is gone). */
bool
boundaryClear(const L1Controller &c, Addr addr)
{
    const CacheLine *l = c.peekLine(addr);
    return !l || (!l->inTransaction() && !l->pinned);
}

} // namespace

TEST(Controller, FootprintRecordsEachLineOnce)
{
    Rig r;
    const Addr lineB = lineA + lineBytes;
    r.hooks0.spec = r.hooks0.tlr = true;
    r.hooks0.ts = Timestamp::make(1, 0);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA, 0, true);
    r.run();
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineA, 0, true); // hit
    r.run();
    r.l1a.markTransactionalRead(lineA);
    r.l1a.markTransactionalWrite(lineA); // Exclusive: writable
    EXPECT_EQ(r.l1a.txnLineCount(), 1u);
    r.access(r.l1a, CacheOp::Kind::LoadShared, lineB, 0, true);
    r.run();
    EXPECT_EQ(r.l1a.txnLineCount(), 2u);
    EXPECT_EQ(r.l1a.pinnedLineCount(), 0u);
    r.hooks0.spec = false;
    r.l1a.commitTransaction(WriteBuffer(4));
    EXPECT_EQ(r.l1a.txnLineCount(), 0u);
    EXPECT_TRUE(boundaryClear(r.l1a, lineA));
    EXPECT_TRUE(boundaryClear(r.l1a, lineB));
}

TEST(Controller, BoundaryClearsArrayVictimPromotedAndPinnedLines)
{
    for (bool commit : {true, false}) {
        SCOPED_TRACE(commit ? "commit" : "abort");
        Rig r(smallL1());
        // T0..T4 and N share one set; O sits in another.
        Addr t[5];
        for (unsigned k = 0; k < 5; ++k)
            t[k] = lineA + setStride * k;
        const Addr n = lineA + setStride * 5;
        const Addr o = lineA + lineBytes;
        r.access(r.l1a, CacheOp::Kind::LoadShared, o);
        r.run();
        const CacheLine before = *r.l1a.peekLine(o);

        r.hooks0.spec = r.hooks0.tlr = true;
        r.hooks0.ts = Timestamp::make(1, 0);
        for (unsigned k = 0; k < 3; ++k) {
            r.access(r.l1a, CacheOp::Kind::LoadShared, t[k], 0, true);
            r.run();
        }
        r.access(r.l1a, CacheOp::Kind::LoadShared, n); // not in the txn
        r.run();
        // The set is full: T3 spills T0 and T4 spills T1 (LRU order)
        // into the victim cache with their access bits.
        for (unsigned k = 3; k < 5; ++k) {
            r.access(r.l1a, CacheOp::Kind::LoadShared, t[k], 0, true);
            r.run();
        }
        bool inVictim = false;
        ASSERT_NE(r.l1a.peekLine(t[0], &inVictim), nullptr);
        EXPECT_TRUE(inVictim);
        EXPECT_TRUE(r.l1a.peekLine(t[0])->accessRead);
        ASSERT_NE(r.l1a.peekLine(t[1], &inVictim), nullptr);
        EXPECT_TRUE(inVictim);

        // A remote store to N frees a way; touching T0 again promotes
        // it back into the array, access bit and all.
        r.access(r.l1b, CacheOp::Kind::Store, n, 5);
        r.run();
        EXPECT_EQ(r.l1a.peekLine(n), nullptr);
        r.access(r.l1a, CacheOp::Kind::LoadShared, t[0], 0, true);
        r.run();
        ASSERT_NE(r.l1a.peekLine(t[0], &inVictim), nullptr);
        EXPECT_FALSE(inVictim);
        EXPECT_TRUE(r.l1a.peekLine(t[0])->accessRead);
        EXPECT_EQ(r.l1a.txnLineCount(), 5u);

        // Deferred readers pin T2 in the array and T1 in the victim
        // cache (reads conflict only with the write set).
        r.l1a.markTransactionalWrite(t[2]);
        r.l1a.markTransactionalWrite(t[1]);
        EXPECT_EQ(r.l1a.txnLineCount(), 5u);
        r.access(r.l1b, CacheOp::Kind::LoadShared, t[2]);
        r.access(r.l1b, CacheOp::Kind::LoadShared, t[1]);
        r.eq.run(2'000);
        ASSERT_EQ(r.l1a.deferredCount(), 2u);
        EXPECT_EQ(r.l1a.pinnedLineCount(), 2u);
        EXPECT_TRUE(r.l1a.peekLine(t[2])->pinned);
        ASSERT_NE(r.l1a.peekLine(t[1], &inVictim), nullptr);
        EXPECT_TRUE(inVictim);
        EXPECT_TRUE(r.l1a.peekLine(t[1])->pinned);

        r.hooks0.spec = false;
        if (commit)
            r.l1a.commitTransaction(WriteBuffer(4));
        else
            r.l1a.abortTransaction();
        r.run();
        EXPECT_EQ(r.hooks1.completions.size(), 3u); // store + 2 reads
        EXPECT_EQ(r.l1a.txnLineCount(), 0u);
        EXPECT_EQ(r.l1a.pinnedLineCount(), 0u);
        for (Addr a : t)
            EXPECT_TRUE(boundaryClear(r.l1a, a)) << std::hex << a;
        // The boundary moved nothing: T1 still sits in the victim
        // cache, T0 in the array.
        ASSERT_NE(r.l1a.peekLine(t[1], &inVictim), nullptr);
        EXPECT_TRUE(inVictim);
        ASSERT_NE(r.l1a.peekLine(t[0], &inVictim), nullptr);
        EXPECT_FALSE(inVictim);
        // The line outside the footprint is untouched.
        const CacheLine *after = r.l1a.peekLine(o);
        ASSERT_NE(after, nullptr);
        EXPECT_EQ(after->state, before.state);
        EXPECT_EQ(after->lastUse, before.lastUse);
        EXPECT_EQ(after->data, before.data);

        // A second transaction spills T4 into the victim cache, then a
        // remote store frees a way in its set. The boundary clears T4
        // where it sits, without promoting it, and leaves T1 (outside
        // this footprint) as it was.
        const CacheLine victimBefore = *r.l1a.peekLine(t[1]);
        r.hooks0.spec = true;
        for (Addr a : {t[4], t[2], t[0]}) {
            r.access(r.l1a, CacheOp::Kind::LoadShared, a, 0, true);
            r.run();
        }
        r.access(r.l1a, CacheOp::Kind::LoadShared, t[3]); // T4 is LRU
        r.run();
        r.access(r.l1a, CacheOp::Kind::LoadShared, lineA + setStride * 6,
                 0, true);
        r.run();
        ASSERT_NE(r.l1a.peekLine(t[4], &inVictim), nullptr);
        EXPECT_TRUE(inVictim);
        EXPECT_TRUE(r.l1a.peekLine(t[4])->accessRead);
        r.access(r.l1b, CacheOp::Kind::Store, t[3], 7);
        r.run();
        EXPECT_EQ(r.l1a.peekLine(t[3]), nullptr);
        EXPECT_EQ(r.l1a.txnLineCount(), 4u);
        r.hooks0.spec = false;
        if (commit)
            r.l1a.commitTransaction(WriteBuffer(4));
        else
            r.l1a.abortTransaction();
        EXPECT_EQ(r.l1a.txnLineCount(), 0u);
        ASSERT_NE(r.l1a.peekLine(t[4], &inVictim), nullptr);
        EXPECT_TRUE(inVictim);
        EXPECT_TRUE(boundaryClear(r.l1a, t[4]));
        ASSERT_NE(r.l1a.peekLine(t[1], &inVictim), nullptr);
        EXPECT_TRUE(inVictim);
        EXPECT_EQ(r.l1a.peekLine(t[1])->state, victimBefore.state);
        EXPECT_EQ(r.l1a.peekLine(t[1])->lastUse, victimBefore.lastUse);
    }
}

TEST(Controller, FootprintListsEmptyAfterEveryBoundary)
{
    Rig r;
    const Addr lineB = lineA + lineBytes;
    r.hooks0.tlr = true;
    for (unsigned i = 0; i < 1000; ++i) {
        r.hooks0.spec = true;
        r.hooks0.ts = Timestamp::make(i + 1, 0);
        r.access(r.l1a, CacheOp::Kind::EnsureExclusive, lineA, 0, true);
        r.access(r.l1a, CacheOp::Kind::LoadShared, lineB, 0, true);
        r.run();
        // An un-timestamped reader is deferred and pins the line.
        r.access(r.l1b, CacheOp::Kind::LoadShared, lineA);
        r.eq.run(r.eq.now() + 200);
        ASSERT_EQ(r.l1a.deferredCount(), 1u) << i;
        ASSERT_EQ(r.l1a.txnLineCount(), 2u) << i;
        ASSERT_EQ(r.l1a.pinnedLineCount(), 1u) << i;
        r.hooks0.spec = false;
        if (i % 2)
            r.l1a.commitTransaction(WriteBuffer(4));
        else
            r.l1a.abortTransaction();
        r.run();
        ASSERT_EQ(r.l1a.txnLineCount(), 0u) << i;
        ASSERT_EQ(r.l1a.pinnedLineCount(), 0u) << i;
        ASSERT_TRUE(boundaryClear(r.l1a, lineA)) << i;
        ASSERT_TRUE(boundaryClear(r.l1a, lineB)) << i;
    }
    EXPECT_EQ(r.hooks1.completions.size(), 1000u);
}
