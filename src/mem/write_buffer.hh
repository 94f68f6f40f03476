/**
 * @file
 * Speculative merging write buffer.
 *
 * Holds all stores performed inside an optimistic transaction until
 * commit (paper Fig. 3, step 3: "locally buffer speculative updates").
 * Writes to the same line merge into one entry, so the capacity limit
 * is the number of *unique lines* written in the critical section —
 * exactly the resource constraint described in paper Section 3.3.
 */

#ifndef TLR_MEM_WRITE_BUFFER_HH
#define TLR_MEM_WRITE_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/line.hh"
#include "sim/types.hh"

namespace tlr
{

class WriteBuffer
{
  public:
    struct Entry
    {
        Addr line = 0;          ///< line address
        std::uint32_t mask = 0; ///< bit i set => word i written
        LineData words{};
    };

    explicit WriteBuffer(unsigned capacity_lines)
        : capacity_(capacity_lines)
    {}

    /** Buffer one word. @return false when a new line entry would
     *  exceed capacity (resource violation => fallback to the lock). */
    bool write(Addr addr, std::uint64_t value);

    /** Store-to-load forwarding: value if the word was written. */
    std::optional<std::uint64_t> read(Addr addr) const;

    bool containsLine(Addr line_addr) const
    {
        return find(lineAlign(line_addr)) != nullptr;
    }

    /** The buffered lines in ascending address order: commit writes
     *  and traces them in that order. */
    const std::vector<Entry> &entries() const { return entries_; }
    size_t lineCount() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    /** Empty the buffer; the entry storage is kept for the next
     *  transaction. */
    void clear() { entries_.clear(); }

  private:
    /** The entry for @p line, or null. A transaction writes a handful
     *  of lines, so a scan beats any index. */
    const Entry *
    find(Addr line) const
    {
        for (const Entry &e : entries_)
            if (e.line == line)
                return &e;
        return nullptr;
    }

    unsigned capacity_;
    std::vector<Entry> entries_; ///< sorted by line address
};

} // namespace tlr

#endif // TLR_MEM_WRITE_BUFFER_HH
