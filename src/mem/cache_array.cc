#include "mem/cache_array.hh"

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
}

CacheLine *
CacheArray::find(Addr line_addr)
{
    CacheLine *base = sets_[setIndex(line_addr)].get();
    if (!base)
        return nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        CacheLine &l = base[w];
        if (isValidState(l.state) && l.addr == line_addr)
            return &l;
    }
    return nullptr;
}

const CacheLine *
CacheArray::find(Addr line_addr) const
{
    return const_cast<CacheArray *>(this)->find(line_addr);
}

CacheLine *
CacheArray::allocateSlot(Addr line_addr)
{
    std::unique_ptr<CacheLine[]> &set = sets_[setIndex(line_addr)];
    if (!set)
        set = std::make_unique<CacheLine[]>(ways_);
    CacheLine *base = set.get();
    CacheLine *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        CacheLine &l = base[w];
        if (!isValidState(l.state))
            return &l;
        if (l.pinned)
            continue;
        if (!victim || l.lastUse < victim->lastUse)
            victim = &l;
    }
    return victim;
}

} // namespace tlr
