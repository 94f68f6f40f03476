/**
 * @file
 * Hardware predictors used by SLE/TLR.
 *
 * SilentPairPredictor: decides whether a store-conditional that
 * matches the silent store-pair idiom should be elided (64 entries,
 * paper Table 2). Entries lose confidence when elision of that static
 * store keeps failing for resource reasons, with periodic re-probing
 * so a temporarily oversized critical section is not blacklisted
 * forever.
 *
 * RmwPredictor: the PC-indexed read-modify-write predictor of paper
 * Section 3.1.2 (128 entries, Table 2). A load whose address is later
 * stored to trains the predictor; predicted loads are issued as
 * read-for-ownership, collapsing the load + upgrade pair into a
 * single exclusive request. Used by every scheme, including BASE.
 */

#ifndef TLR_CORE_PREDICTORS_HH
#define TLR_CORE_PREDICTORS_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace tlr
{

/** PC-indexed table with LRU replacement and saturating confidence. */
class SilentPairPredictor
{
  public:
    explicit SilentPairPredictor(unsigned entries) : capacity_(entries) {}

    /** Should the SC at @p pc be elided? Unknown PCs elide (the idiom
     *  itself is the evidence). Blocked PCs re-probe every 16th try. */
    bool shouldElide(int pc);

    /** A region started at @p pc committed successfully. */
    void reward(int pc);

    /** Elision at @p pc was abandoned (resource fallback / SLE retry
     *  budget exhausted). */
    void penalize(int pc);

  private:
    struct Entry
    {
        int conf = 2; ///< 2-bit saturating confidence
        unsigned blockedTries = 0;
        std::uint64_t lastUse = 0;
    };

    Entry &lookup(int pc);

    unsigned capacity_;
    std::uint64_t useTick_ = 0;
    std::unordered_map<int, Entry> table_;
};

/** The window of recent loads is a fixed ring and the table a
 *  pc-indexed flag array (pcs are instruction indices, >= 0), so
 *  observing and predicting allocate nothing once the table has grown
 *  to the program's highest trained pc. */
class RmwPredictor
{
  public:
    RmwPredictor(unsigned entries, unsigned window)
        : capacity_(entries), recent_(window)
    {}

    /** Record a retiring load for later store matching. */
    void observeLoad(int pc, Addr addr);

    /** A store retired: train the predictor for the newest recent load
     *  to the same word address. A full table learns no new pc. */
    void observeStore(Addr addr);

    /** Should the load at @p pc request exclusive ownership? */
    bool
    predictExclusive(int pc) const
    {
        const auto i = static_cast<size_t>(pc);
        return i < exclusive_.size() && exclusive_[i];
    }

    size_t tableSize() const { return learned_; }

  private:
    struct RecentLoad
    {
        int pc;
        Addr addr;
    };

    unsigned capacity_;
    std::vector<RecentLoad> recent_; ///< ring of the last window loads
    size_t newest_ = 0;              ///< ring index of the newest load
    size_t held_ = 0;                ///< loads in the ring (<= window)
    std::vector<std::uint8_t> exclusive_; ///< pc -> predict exclusive
    size_t learned_ = 0;                  ///< pcs set in exclusive_
};

} // namespace tlr

#endif // TLR_CORE_PREDICTORS_HH
