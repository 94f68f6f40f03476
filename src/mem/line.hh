/**
 * @file
 * Cache line representation and MOESI coherence states.
 */

#ifndef TLR_MEM_LINE_HH
#define TLR_MEM_LINE_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"

namespace tlr
{

/** Data payload of one cache line: 8 x 64-bit words. */
using LineData = std::array<std::uint64_t, wordsPerLine>;

/** MOESI coherence states. */
enum class CohState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Owned,
    Modified,
};

/** States that make this cache the data supplier for the line. */
constexpr bool
isOwnerState(CohState s)
{
    return s == CohState::Modified || s == CohState::Owned ||
           s == CohState::Exclusive;
}

/** States granting write permission without a bus transaction. */
constexpr bool
isWritableState(CohState s)
{
    return s == CohState::Modified || s == CohState::Exclusive;
}

constexpr bool
isValidState(CohState s)
{
    return s != CohState::Invalid;
}

/** Dirty with respect to memory: must write back on eviction. */
constexpr bool
isDirtyState(CohState s)
{
    return s == CohState::Modified || s == CohState::Owned;
}

const char *cohStateName(CohState s);

/**
 * One cache line. The transactional access bits implement the paper's
 * "1 bit per block to track data accessed within transaction"
 * (we keep separate read/write bits so read-read sharing is not a
 * conflict, per the data-conflict definition in the paper's Section 1).
 */
struct CacheLine
{
    // The one-byte fields sit together between the words and the
    // payload, so the line carries 4 bytes of padding instead of 20.
    Addr addr = 0;                 ///< line-aligned address (tag)
    std::uint64_t lastUse = 0;     ///< LRU timestamp
    CohState state = CohState::Invalid;
    bool accessRead = false;       ///< speculatively read in transaction
    bool accessWrite = false;      ///< speculatively written in transaction
    bool pinned = false;           ///< ineligible for eviction (MSHR/defer)
    LineData data{};

    bool inTransaction() const { return accessRead || accessWrite; }

    void
    clearAccess()
    {
        accessRead = false;
        accessWrite = false;
    }

    void
    invalidate()
    {
        state = CohState::Invalid;
        clearAccess();
        pinned = false;
    }
};

static_assert(sizeof(CacheLine) <= 88, "CacheLine fields are padded");

} // namespace tlr

#endif // TLR_MEM_LINE_HH
