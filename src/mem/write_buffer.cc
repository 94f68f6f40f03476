#include "mem/write_buffer.hh"

namespace tlr
{

bool
WriteBuffer::write(Addr addr, std::uint64_t value)
{
    const Addr line = lineAlign(addr);
    auto it = entries_.begin();
    while (it != entries_.end() && it->line < line)
        ++it;
    if (it == entries_.end() || it->line != line) {
        if (entries_.size() >= capacity_)
            return false;
        it = entries_.insert(it, Entry{line, 0, {}});
    }
    unsigned w = wordIndex(addr);
    it->mask |= 1u << w;
    it->words[w] = value;
    return true;
}

std::optional<std::uint64_t>
WriteBuffer::read(Addr addr) const
{
    const Entry *e = find(lineAlign(addr));
    if (!e)
        return std::nullopt;
    unsigned w = wordIndex(addr);
    if (!(e->mask & (1u << w)))
        return std::nullopt;
    return e->words[w];
}

} // namespace tlr
