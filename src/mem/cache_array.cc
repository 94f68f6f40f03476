#include "mem/cache_array.hh"

#include <algorithm>
#include <functional>

#include "sim/logging.hh"

namespace tlr
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v && !(v & (v - 1));
}

} // namespace

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned ways)
    : ways_(ways)
{
    if (ways == 0 || size_bytes % (ways * lineBytes) != 0)
        fatal("bad cache geometry: %llu bytes / %u ways",
              static_cast<unsigned long long>(size_bytes), ways);
    numSets_ = static_cast<unsigned>(size_bytes / (ways * lineBytes));
    if (!isPow2(numSets_))
        fatal("cache set count %u not a power of two", numSets_);
    sets_.resize(numSets_);
    const size_t n = static_cast<size_t>(numSets_) * ways_;
    tags_.reset(static_cast<Addr *>(
        ::operator new[](n * sizeof(Addr), std::align_val_t{64})));
    std::fill_n(tags_.get(), n, noTag);
}

void
CacheArray::syncTag(const CacheLine &line)
{
    const unsigned set = setIndex(line.addr);
    const CacheLine *base = sets_[set].get();
    const std::less<const CacheLine *> below;
    if (!base || below(&line, base) || !below(&line, base + ways_))
        return;
    tags_[static_cast<size_t>(set) * ways_ +
          static_cast<size_t>(&line - base)] =
        isValidState(line.state) ? line.addr : noTag;
}

CacheLine *
CacheArray::allocateSlot(Addr line_addr)
{
    const unsigned set = setIndex(line_addr);
    std::unique_ptr<CacheLine[]> &lines = sets_[set];
    if (!lines)
        lines = std::make_unique<CacheLine[]>(ways_);
    const Addr *tags = &tags_[static_cast<size_t>(set) * ways_];
    CacheLine *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        CacheLine &l = lines[w];
        if (tags[w] == noTag)
            return &l;
        if (l.pinned)
            continue;
        if (!victim || l.lastUse < victim->lastUse)
            victim = &l;
    }
    return victim;
}

} // namespace tlr
