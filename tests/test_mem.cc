/**
 * @file
 * Unit tests for the memory substrate: cache array geometry and LRU,
 * victim cache, merging write buffer, and backing store.
 */

#include <gtest/gtest.h>

#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "mem/victim_cache.hh"
#include "mem/write_buffer.hh"

using namespace tlr;

TEST(CacheArray, GeometryValidation)
{
    CacheArray ok(128 * 1024, 4);
    EXPECT_EQ(ok.numSets(), 128u * 1024 / (4 * lineBytes));
    EXPECT_THROW(CacheArray(1000, 3), std::runtime_error);
    EXPECT_THROW(CacheArray(128 * 1024, 0), std::runtime_error);
}

TEST(CacheArray, FindAfterInstall)
{
    CacheArray c(8 * 1024, 2);
    Addr a = 0x1000;
    CacheLine *slot = c.allocateSlot(a);
    ASSERT_NE(slot, nullptr);
    slot->addr = a;
    slot->state = CohState::Shared;
    slot->data[3] = 99;
    EXPECT_EQ(c.find(a), nullptr); // the tag array has not heard of it
    c.syncTag(*slot);
    CacheLine *found = c.find(a);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->data[3], 99u);
    EXPECT_EQ(c.find(0x2000), nullptr);
    EXPECT_EQ(c.find(0x1040), nullptr); // a set that never held a line
    CacheLine copy = *slot; // outside the array: ignored
    copy.invalidate();
    c.syncTag(copy);
    EXPECT_EQ(c.find(a), found);
    slot->invalidate();
    c.syncTag(*slot);
    EXPECT_EQ(c.find(a), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    // 2-way cache: fill a set, then confirm the LRU way is chosen.
    CacheArray c(2 * lineBytes * 4, 2); // 4 sets, 2 ways
    unsigned set_span = c.numSets() * lineBytes;
    Addr a0 = 0x0, a1 = a0 + set_span, a2 = a1 + set_span; // same set
    auto install = [&](Addr a, std::uint64_t use) {
        CacheLine *s = c.allocateSlot(a);
        s->addr = a;
        s->state = CohState::Shared;
        c.syncTag(*s);
        c.touch(*s, use);
        return s;
    };
    install(a0, 10);
    install(a1, 20);
    CacheLine *victim = c.allocateSlot(a2);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->addr, a0); // least recently used
}

TEST(CacheArray, PinnedLinesAreNotEvicted)
{
    CacheArray c(2 * lineBytes * 1, 2); // 1 set, 2 ways
    auto install = [&](Addr a, bool pinned) {
        CacheLine *s = c.allocateSlot(a);
        s->addr = a;
        s->state = CohState::Modified;
        s->pinned = pinned;
        c.syncTag(*s);
        return s;
    };
    install(0x000, true);
    CacheLine *b = install(0x040, true);
    EXPECT_EQ(b->addr, 0x040u);
    EXPECT_EQ(c.allocateSlot(0x080), nullptr); // everything pinned
    b->pinned = false;
    CacheLine *v = c.allocateSlot(0x080);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->addr, 0x040u);
}

TEST(VictimCache, InsertFindEraseAndCapacity)
{
    VictimCache v(2);
    CacheLine l;
    l.addr = 0x100;
    l.state = CohState::Modified;
    EXPECT_TRUE(v.insert(l));
    l.addr = 0x200;
    EXPECT_TRUE(v.insert(l));
    l.addr = 0x300;
    EXPECT_FALSE(v.insert(l)); // full
    ASSERT_NE(v.find(0x100), nullptr);
    v.erase(0x100);
    EXPECT_EQ(v.find(0x100), nullptr);
    EXPECT_TRUE(v.insert(l)); // space again
}

TEST(WriteBuffer, MergesWritesPerLine)
{
    WriteBuffer wb(2);
    EXPECT_TRUE(wb.write(0x1000, 1));
    EXPECT_TRUE(wb.write(0x1008, 2)); // same line: merges
    EXPECT_EQ(wb.lineCount(), 1u);
    EXPECT_TRUE(wb.write(0x2000, 3));
    EXPECT_EQ(wb.lineCount(), 2u);
    EXPECT_FALSE(wb.write(0x3000, 4)); // capacity = unique lines
    // Rewriting an existing line is always allowed.
    EXPECT_TRUE(wb.write(0x1000, 9));
    EXPECT_EQ(wb.read(0x1000), std::optional<std::uint64_t>(9));
    EXPECT_EQ(wb.read(0x1008), std::optional<std::uint64_t>(2));
    EXPECT_EQ(wb.read(0x1010), std::nullopt); // word not written
    EXPECT_EQ(wb.read(0x4000), std::nullopt);
    wb.clear();
    EXPECT_EQ(wb.lineCount(), 0u);
}

TEST(BackingStore, WordAndLineAccess)
{
    BackingStore bs(1024);
    EXPECT_EQ(bs.readWord(0x1000), 0u);
    bs.writeWord(0x1008, 55);
    EXPECT_EQ(bs.readWord(0x1008), 55u);
    LineData ld = bs.readLine(0x1000);
    EXPECT_EQ(ld[1], 55u);
    ld[2] = 66;
    bs.writeLine(0x1000, ld);
    EXPECT_EQ(bs.readWord(0x1010), 66u);
}

TEST(BackingStore, L2FilterTracksRecency)
{
    BackingStore bs(2);
    EXPECT_FALSE(bs.accessL2(0x000)); // cold
    EXPECT_TRUE(bs.accessL2(0x000));  // warm
    bs.accessL2(0x040);
    bs.accessL2(0x080); // exceeds capacity: filter resets
    EXPECT_TRUE(bs.accessL2(0x080));
}
