#include "core/predictors.hh"

#include <algorithm>
#include <cassert>

namespace tlr
{

SilentPairPredictor::Entry &
SilentPairPredictor::lookup(int pc)
{
    auto it = table_.find(pc);
    if (it == table_.end()) {
        if (table_.size() >= capacity_) {
            // Evict the least recently used entry.
            auto victim = table_.begin();
            for (auto i = table_.begin(); i != table_.end(); ++i)
                if (i->second.lastUse < victim->second.lastUse)
                    victim = i;
            table_.erase(victim);
        }
        it = table_.emplace(pc, Entry{}).first;
    }
    it->second.lastUse = ++useTick_;
    return it->second;
}

bool
SilentPairPredictor::shouldElide(int pc)
{
    Entry &e = lookup(pc);
    if (e.conf > 0)
        return true;
    // Blocked: periodically probe in case the region shrank.
    return ++e.blockedTries % 16 == 0;
}

void
SilentPairPredictor::reward(int pc)
{
    Entry &e = lookup(pc);
    e.conf = std::min(e.conf + 1, 3);
    e.blockedTries = 0;
}

void
SilentPairPredictor::penalize(int pc)
{
    Entry &e = lookup(pc);
    e.conf = std::max(e.conf - 2, 0);
}

void
RmwPredictor::observeLoad(int pc, Addr addr)
{
    assert(pc >= 0);
    if (recent_.empty())
        return; // window 0: nothing is remembered, nothing trains
    newest_ = newest_ + 1 == recent_.size() ? 0 : newest_ + 1;
    recent_[newest_] = {pc, addr};
    held_ = std::min(held_ + 1, recent_.size());
}

void
RmwPredictor::observeStore(Addr addr)
{
    // Newest first: the newest matching load is the one that trains.
    for (size_t k = 0, i = newest_; k < held_; ++k) {
        const RecentLoad &rl = recent_[i];
        if (rl.addr == addr) {
            const auto pc = static_cast<size_t>(rl.pc);
            if (pc < exclusive_.size() && exclusive_[pc])
                return; // already learned
            if (learned_ >= capacity_)
                return; // table full; do not learn new PCs
            if (pc >= exclusive_.size())
                exclusive_.resize(pc + 1);
            exclusive_[pc] = 1;
            ++learned_;
            return;
        }
        i = i == 0 ? recent_.size() - 1 : i - 1;
    }
}

} // namespace tlr
