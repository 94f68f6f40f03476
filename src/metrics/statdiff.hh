/**
 * @file
 * Stats-dump comparison engine behind `tlrreport --diff`.
 *
 * Diffs two parsed --stats-json (or BENCH_*.json) documents: flattens
 * every numeric leaf to a dotted path, pairs the paths, computes the
 * relative change and flags rows exceeding a threshold. Refuses to
 * compare documents with mismatched schema_version fields — cross-
 * schema diffs silently mis-pair keys, which is worse than an error.
 */

#ifndef TLR_METRICS_STATDIFF_HH
#define TLR_METRICS_STATDIFF_HH

#include <string>
#include <vector>

#include "sim/json.hh"

namespace tlr
{

struct DiffOptions
{
    double thresholdPct = 20.0; ///< flag rows with |delta| above this
    /** Dotted path selecting the comparison root inside each document
     *  (empty = whole document). Lets a diff compare one sub-record of a
     *  multi-config bench dump, e.g. --old-prefix=current. */
    std::string oldPrefix;
    std::string newPrefix;
    /** Display names for the two inputs (tlrreport passes the file
     *  paths) so refusal/error messages can say which file carries
     *  which schema version. */
    std::string oldName = "old";
    std::string newName = "new";
};

struct DiffRow
{
    std::string key;    ///< dotted path below the comparison root
    double oldVal = 0;
    double newVal = 0;
    double relPct = 0;  ///< 100*(new-old)/old; 0 when old==new==0
    bool exceeded = false;
    /** Shown but never gated: a host-performance key (speedup,
     *  efficiency, wall time, events/sec, host_threads) compared
     *  across runs recorded on different host-thread budgets. */
    bool reportOnly = false;
};

struct DiffReport
{
    bool schemaMismatch = false;
    /** Both documents carry a "timeline" section and their epoch
     *  lengths differ: per-epoch rows would mis-pair (epoch 3 of a
     *  500-cycle timeline is not epoch 3 of a 2000-cycle one), so the
     *  diff is refused like a schema mismatch. */
    bool timelineEpochMismatch = false;
    long oldEpochLen = -1; ///< -1 = no timeline section
    long newEpochLen = -1;
    /** Per-epoch regression localization: one line per timeline field
     *  that changed, naming the first diverging epoch. */
    std::vector<std::string> timelineNotes;
    /** Both documents record host_threads and the values differ: the
     *  runs used different host parallelism, so host-performance
     *  comparisons (speedup, wall time, events/sec) are meaningless.
     *  Those keys are reported but excluded from threshold gating. */
    bool hostThreadsDiffer = false;
    std::string error;       ///< non-empty on structural failure
    long oldSchema = -1;     ///< -1 = legacy (no schema_version field)
    long newSchema = -1;
    std::vector<DiffRow> rows;        ///< keys present in both, sorted
    std::vector<std::string> onlyOld; ///< keys that disappeared
    std::vector<std::string> onlyNew; ///< keys that appeared
    size_t exceeded = 0;              ///< rows over the threshold

    bool ok() const
    {
        return error.empty() && !schemaMismatch &&
               !timelineEpochMismatch;
    }
};

/** Compare two parsed stats documents. */
DiffReport diffStats(const JsonValue &old_doc, const JsonValue &new_doc,
                     const DiffOptions &opt);

/** Human-readable report: one line per changed row (threshold
 *  violations marked), plus appeared/disappeared key summaries. */
std::string renderDiff(const DiffReport &rep, const DiffOptions &opt);

/** Machine-readable report (tlrreport --diff --json): a versioned document
 *  (diffJsonSchemaVersion) with one row object per DiffRow — including
 *  report-only rows — plus the refusal/note state, so CI can gate on
 *  specific keys without scraping the human table. */
std::string renderDiffJson(const DiffReport &rep, const DiffOptions &opt);

/** True for host-performance keys (speedup, efficiency, wall_sec,
 *  events_per_sec, host_threads — matched on the final path component):
 *  meaningful only when both runs used the same host-thread budget.
 *  Shared with tlrreport --trend, which marks them report-only. */
bool isHostPerfKey(const std::string &key);

/** Flatten every numeric leaf under @p v into @p out as
 *  ("a.b.c", value) pairs. Skips the schema_version field and the
 *  meta subtree at the top level (build metadata is not a metric). */
void flattenNumbers(const JsonValue &v,
                    std::vector<std::pair<std::string, double>> &out);

/** Walk a dotted path ("bench.current") into an object tree; null when
 *  any component is missing. */
const JsonValue *resolvePath(const JsonValue &v, const std::string &path);

} // namespace tlr

#endif // TLR_METRICS_STATDIFF_HH
