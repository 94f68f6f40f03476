/**
 * @file
 * Stats-dump comparison engine behind `tlrreport --diff` and
 * `--trend` (a trend is one diff per run against the first).
 *
 * Diffs two parsed --stats-json documents: flattens every numeric
 * leaf to a dotted path, pairs the paths, computes the relative change
 * and flags rows exceeding a threshold. Refuses to compare documents
 * with mismatched schema_version fields — cross-schema diffs silently
 * mis-pair keys, which is worse than an error.
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
    /** Display names for the two inputs (tlrreport passes the file
     *  paths) so refusal/error messages can say which file carries
     *  which schema version. */
    std::string oldName = "old";
    std::string newName = "new";
};

struct DiffRow
{
    std::string key;    ///< dotted path of the numeric leaf
    double oldVal = 0;
    double newVal = 0;
    double relPct = 0;  ///< 100*(new-old)/old; 0 when old==new==0
    bool exceeded = false;
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
    long oldSchema = -1;     ///< -1 = legacy (no schema_version field)
    long newSchema = -1;
    std::vector<DiffRow> rows;        ///< keys present in both, sorted
    std::vector<std::string> onlyOld; ///< keys that disappeared
    std::vector<std::string> onlyNew; ///< keys that appeared
    size_t exceeded = 0;              ///< rows over the threshold

    /** False when the diff was refused. */
    bool ok() const { return !schemaMismatch && !timelineEpochMismatch; }
};

/** Compare two parsed stats documents. */
DiffReport diffStats(const JsonValue &old_doc, const JsonValue &new_doc,
                     const DiffOptions &opt);

/** Human-readable report: one line per changed row (threshold
 *  violations marked), plus appeared/disappeared key summaries. */
std::string renderDiff(const DiffReport &rep, const DiffOptions &opt);

/** Machine-readable report (tlrreport --diff --json): a versioned document
 *  (diffJsonSchemaVersion) with one row object per DiffRow plus the
 *  refusal state, so CI can gate on specific keys without scraping the
 *  human table. */
std::string renderDiffJson(const DiffReport &rep, const DiffOptions &opt);

/** Walk a dotted path ("timeline.epoch_len") into an object tree;
 *  null when any component is missing. */
const JsonValue *resolvePath(const JsonValue &v, const std::string &path);

} // namespace tlr

#endif // TLR_METRICS_STATDIFF_HH
