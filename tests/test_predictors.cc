/**
 * @file
 * Unit tests for the timestamp ordering rules, the silent store-pair
 * predictor, the read-modify-write predictor, the layout allocator
 * and the generated lock code.
 */

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "count_new.hh"
#include "core/predictors.hh"
#include "core/timestamp.hh"
#include "cpu/program.hh"
#include "sim/rng.hh"
#include "sync/layout.hh"
#include "sync/lock_progs.hh"

using namespace tlr;

TEST(Timestamp, EarlierClockWins)
{
    Timestamp a = Timestamp::make(3, 7);
    Timestamp b = Timestamp::make(5, 1);
    EXPECT_TRUE(a.earlierThan(b));
    EXPECT_FALSE(b.earlierThan(a));
}

TEST(Timestamp, TiesBreakOnCpuId)
{
    Timestamp a = Timestamp::make(4, 1);
    Timestamp b = Timestamp::make(4, 2);
    EXPECT_TRUE(a.earlierThan(b));
    EXPECT_FALSE(b.earlierThan(a));
}

TEST(Timestamp, UntimestampedHasLowestPriority)
{
    Timestamp none; // invalid
    Timestamp any = Timestamp::make(1'000'000, 15);
    EXPECT_TRUE(any.earlierThan(none));
    EXPECT_FALSE(none.earlierThan(any));
    EXPECT_FALSE(none.earlierThan(Timestamp{}));
}

TEST(Timestamp, TotalOrderAmongValid)
{
    std::vector<Timestamp> all;
    for (std::uint64_t c = 0; c < 4; ++c)
        for (CpuId p = 0; p < 4; ++p)
            all.push_back(Timestamp::make(c, p));
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_FALSE(all[i].earlierThan(all[i]));
        for (size_t j = i + 1; j < all.size(); ++j) {
            EXPECT_NE(all[i].earlierThan(all[j]),
                      all[j].earlierThan(all[i]));
        }
    }
}

TEST(SilentPairPredictor, ElidesByDefault)
{
    SilentPairPredictor p(4);
    EXPECT_TRUE(p.shouldElide(100));
}

TEST(SilentPairPredictor, PenaltyBlocksThenReprobes)
{
    SilentPairPredictor p(4);
    p.penalize(100);
    // Confidence exhausted: blocked, but every 16th query re-probes.
    int allowed = 0;
    for (int i = 0; i < 32; ++i)
        allowed += p.shouldElide(100) ? 1 : 0;
    EXPECT_EQ(allowed, 2);
}

TEST(SilentPairPredictor, RewardRestoresConfidence)
{
    SilentPairPredictor p(4);
    p.penalize(100);
    p.reward(100);
    EXPECT_TRUE(p.shouldElide(100));
}

TEST(SilentPairPredictor, CapacityEvictsLru)
{
    SilentPairPredictor p(2);
    p.penalize(1); // blocked
    p.penalize(2); // blocked
    EXPECT_FALSE(p.shouldElide(1));
    p.shouldElide(3); // evicts LRU entry (pc=2 was... pc=1 refreshed)
    // pc=2 was least recently used and is forgotten: elide by default.
    EXPECT_TRUE(p.shouldElide(2));
}

TEST(RmwPredictor, TrainsOnLoadStorePairs)
{
    RmwPredictor p(8, 4);
    EXPECT_FALSE(p.predictExclusive(10));
    p.observeLoad(10, 0x1000);
    p.observeStore(0x1000);
    EXPECT_TRUE(p.predictExclusive(10));
}

TEST(RmwPredictor, WindowLimitsMatching)
{
    RmwPredictor p(8, 2);
    p.observeLoad(10, 0x1000);
    p.observeLoad(11, 0x2000);
    p.observeLoad(12, 0x3000); // pushes 0x1000 out of the window
    p.observeStore(0x1000);
    EXPECT_FALSE(p.predictExclusive(10));
    p.observeStore(0x3000);
    EXPECT_TRUE(p.predictExclusive(12));
}

TEST(RmwPredictor, DistinctAddressesDoNotTrain)
{
    RmwPredictor p(8, 4);
    p.observeLoad(10, 0x1000);
    p.observeStore(0x1008); // different word
    EXPECT_FALSE(p.predictExclusive(10));
}

TEST(RmwPredictor, CapacityBoundsTable)
{
    RmwPredictor p(2, 8);
    for (int i = 0; i < 4; ++i) {
        p.observeLoad(100 + i, 0x1000u + 64u * static_cast<unsigned>(i));
        p.observeStore(0x1000u + 64u * static_cast<unsigned>(i));
    }
    EXPECT_LE(p.tableSize(), 2u);
}

namespace
{

/** The list-and-hash-map predictor the ring version replaced, kept as
 *  the reference for the differential test. */
class ListRmwPredictor
{
  public:
    ListRmwPredictor(unsigned entries, unsigned window)
        : capacity_(entries), window_(window)
    {}

    void
    observeLoad(int pc, Addr addr)
    {
        recent_.push_front({pc, addr});
        if (recent_.size() > window_)
            recent_.pop_back();
    }

    void
    observeStore(Addr addr)
    {
        for (const auto &rl : recent_) {
            if (rl.addr == addr) {
                if (table_.size() >= capacity_ && !table_.count(rl.pc))
                    return;
                table_[rl.pc] = true;
                return;
            }
        }
    }

    bool
    predictExclusive(int pc) const
    {
        auto it = table_.find(pc);
        return it != table_.end() && it->second;
    }

    size_t tableSize() const { return table_.size(); }

  private:
    struct RecentLoad
    {
        int pc;
        Addr addr;
    };

    unsigned capacity_;
    unsigned window_;
    std::list<RecentLoad> recent_;
    std::unordered_map<int, bool> table_;
};

/** Replay a seeded random load/store stream of @p ops operations over
 *  @p pcs pcs and a few words on @p p. */
template <typename P>
void
replay(P &p, std::uint64_t seed, int ops, int pcs)
{
    Rng r(seed);
    for (int i = 0; i < ops; ++i) {
        const Addr addr = 0x1000 + 8 * r.below(24);
        if (r.below(3))
            p.observeLoad(static_cast<int>(r.below(pcs)), addr);
        else
            p.observeStore(addr);
    }
}

} // namespace

TEST(RmwPredictor, MatchesListReference)
{
    constexpr int pcs = 48;
    for (unsigned window : {0u, 1u, 8u}) {
        for (unsigned entries : {4u, 128u}) { // 4: the table fills up
            for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "window " << window << " entries "
                             << entries << " seed " << seed);
                RmwPredictor ring(entries, window);
                ListRmwPredictor list(entries, window);
                Rng r(seed);
                for (int i = 0; i < 400; ++i) {
                    const Addr addr = 0x1000 + 8 * r.below(24);
                    if (r.below(3)) {
                        const int pc = static_cast<int>(r.below(pcs));
                        ring.observeLoad(pc, addr);
                        list.observeLoad(pc, addr);
                    } else {
                        ring.observeStore(addr);
                        list.observeStore(addr);
                    }
                    ASSERT_EQ(ring.tableSize(), list.tableSize());
                }
                for (int pc = 0; pc < pcs + 8; ++pc)
                    EXPECT_EQ(ring.predictExclusive(pc),
                              list.predictExclusive(pc));
                if (window == 0) {
                    EXPECT_EQ(ring.tableSize(), 0u);
                }
                if (window == 8 && entries == 4) {
                    EXPECT_EQ(ring.tableSize(), 4u);
                }
            }
        }
    }
}

TEST(RmwPredictor, NoHeapAllocationAfterWarmup)
{
    RmwPredictor p(128, 32);
    replay(p, 7, 2000, 64); // grows the table to its highest pc
    const std::size_t before = newCalls;
    replay(p, 7, 2000, 64);
    bool any = false;
    for (int pc = 0; pc < 64; ++pc)
        any |= p.predictExclusive(pc);
    EXPECT_EQ(newCalls, before);
    EXPECT_TRUE(any);
}

TEST(Layout, AlignmentAndPadding)
{
    Layout lay;
    Addr a = lay.alloc(8);
    Addr b = lay.allocLine();
    Addr c = lay.allocLine();
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % lineBytes, 0u);
    EXPECT_EQ(c - b, static_cast<Addr>(lineBytes));
    Addr d = lay.allocLines(3);
    Addr e = lay.allocLine();
    EXPECT_EQ(e - d, static_cast<Addr>(3 * lineBytes));
}

TEST(Layout, LockClassifierMatchesWholeLine)
{
    Layout lay;
    Addr lock = lay.allocLock();
    Addr data = lay.allocLine();
    auto cls = lay.classifier();
    EXPECT_TRUE(cls(lock));
    EXPECT_TRUE(cls(lock + 8)); // same line
    EXPECT_FALSE(cls(data));
    lay.registerSyncAddr(data);
    // Classifier snapshots are independent of later registration.
    EXPECT_FALSE(cls(data));
    EXPECT_TRUE(lay.classifier()(data));
}

TEST(LockProgs, TtsSequenceAssembles)
{
    ProgramBuilder b;
    b.li(1, 0x1000);
    emitTtsAcquire(b, 1, 2, 3);
    emitTtsRelease(b, 1);
    b.halt();
    auto p = b.build();
    // The acquire must contain LL, SC and the release a plain store.
    bool hasLl = false, hasSc = false, hasSt = false;
    for (int i = 0; i < p->size(); ++i) {
        hasLl |= p->at(i).op == Opcode::Ll;
        hasSc |= p->at(i).op == Opcode::Sc;
        hasSt |= p->at(i).op == Opcode::St;
    }
    EXPECT_TRUE(hasLl && hasSc && hasSt);
}

TEST(LockProgs, McsSequencesAssemble)
{
    ProgramBuilder b;
    b.li(1, 0x1000).li(2, 0x2000);
    emitMcsAcquire(b, 1, 2, 3, 4, 5);
    emitMcsRelease(b, 1, 2, 3, 4);
    b.halt();
    EXPECT_GT(b.build()->size(), 10);
}
