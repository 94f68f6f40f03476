/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Components register scalar counters under "group.name" keys. The
 * harness dumps or queries them after a run. Counters are plain u64s
 * behind stable references, so the hot path is a single increment.
 */

#ifndef TLR_SIM_STATS_HH
#define TLR_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace tlr
{

class StatSet
{
  public:
    /** Get (creating if needed) the counter named "group.name". */
    std::uint64_t &counter(const std::string &group, const std::string &name);

    /** Read a counter; 0 if it was never registered. */
    std::uint64_t get(const std::string &group, const std::string &name) const;

    /** Sum of one stat name across all groups matching @p groupPrefix. */
    std::uint64_t sum(const std::string &groupPrefix,
                      const std::string &name) const;

    /** All counters, sorted by key, for dumping. */
    const std::map<std::string, std::uint64_t> &all() const { return vals_; }

    /** Render "key = value" lines, optionally filtered by prefix. */
    std::string dump(const std::string &prefix = "") const;

    /** Render the counters as a versioned JSON document:
     *  {"schema_version": N, "meta": {...}, "counters": {flat}}.
     *  The "counters" subobject is the flat sorted key map (tlrsim
     *  --stats-json; machine-readable run comparison — tlrreport --diff).
     *  @p extra_sections, when non-empty, is spliced verbatim as
     *  additional top-level members (already-rendered JSON of the form
     *  `"key": {...}`); the metrics layer adds its section this way. */
    std::string dumpJson(const std::string &extra_sections = "") const;

    void clear() { vals_.clear(); }

  private:
    std::map<std::string, std::uint64_t> vals_;
};

} // namespace tlr

#endif // TLR_SIM_STATS_HH
