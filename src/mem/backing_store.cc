#include "mem/backing_store.hh"

#include "sim/logging.hh"

namespace tlr
{

LineData
BackingStore::readLine(Addr line_addr) const
{
    auto it = lines_.find(lineAlign(line_addr));
    return it == lines_.end() ? LineData{} : it->second;
}

void
BackingStore::writeLine(Addr line_addr, const LineData &data)
{
    lines_[lineAlign(line_addr)] = data;
}

std::uint64_t
BackingStore::readWord(Addr addr) const
{
    auto it = lines_.find(lineAlign(addr));
    return it == lines_.end() ? 0 : it->second[wordIndex(addr)];
}

void
BackingStore::writeWord(Addr addr, std::uint64_t value)
{
    lines_[lineAlign(addr)][wordIndex(addr)] = value;
}

bool
BackingStore::accessL2(Addr line_addr)
{
    if (l2Capacity_ == 0)
        return false;
    Addr line = lineAlign(line_addr);
    bool hit = l2Present_.contains(line);
    if (!hit) {
        if (l2Present_.size() >= l2Capacity_)
            l2Present_.clear();
        l2Present_.insert(line);
    }
    return hit;
}

} // namespace tlr
