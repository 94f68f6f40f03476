#include "sync/layout.hh"

#include "sim/logging.hh"

namespace tlr
{

Addr
Layout::alloc(std::uint64_t bytes, std::uint64_t align)
{
    if (align == 0 || (align & (align - 1)))
        fatal("alignment must be a power of two");
    next_ = (next_ + align - 1) & ~(align - 1);
    Addr a = next_;
    next_ += bytes;
    return a;
}

Addr
Layout::allocLine()
{
    return alloc(lineBytes, lineBytes);
}

Addr
Layout::allocLines(unsigned lines)
{
    return alloc(static_cast<std::uint64_t>(lines) * lineBytes, lineBytes);
}

Addr
Layout::allocLock()
{
    Addr a = allocLine();
    addLockLine(lineAlign(a));
    return a;
}

void
Layout::registerSyncAddr(Addr addr)
{
    addLockLine(lineAlign(addr));
}

void
Layout::addLockLine(Addr line)
{
    if (lockLines_.use_count() > 1)
        lockLines_ = std::make_shared<FlatSet<Addr>>(*lockLines_);
    lockLines_->insert(line);
}

std::function<bool(Addr)>
Layout::classifier() const
{
    // Shared ownership: the classifier may outlive the layout.
    return [lines = std::shared_ptr<const FlatSet<Addr>>(lockLines_)](
               Addr a) { return lines->contains(lineAlign(a)); };
}

} // namespace tlr
