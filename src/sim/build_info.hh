/**
 * @file
 * Build/host metadata and the stats JSON schema version.
 *
 * Every versioned JSON dump (tlrsim --stats-json, bench_db
 * --bench-json) carries a `schema_version` plus a `meta` object
 * identifying the compiler, build flags and git revision that produced
 * it, so `tlrreport --diff` can refuse to diff documents whose layouts
 * disagree and so perf numbers are traceable to a build.
 */

#ifndef TLR_SIM_BUILD_INFO_HH
#define TLR_SIM_BUILD_INFO_HH

#include <string>

namespace tlr
{

/** Version of the dumped stats/metrics JSON layout. v1 was the flat
 *  "group.name": value object; v2 wraps those counters under
 *  "counters" and adds meta + optional metrics sections. Bump on any
 *  shape change — tlrreport --diff exits 2 on a version mismatch. */
inline constexpr int statsSchemaVersion = 2;

/** Version of dumps that embed a "metrics" section (tlrsim with
 *  TLR_METRICS, bench_db --bench-json). v3 = v2 plus the per-workload
 *  abort digest ("aborts": abort_rate + hottest lock) inside the
 *  metrics object. Counter-only dumps keep statsSchemaVersion, so
 *  metrics-off output is bit-identical across this bump. */
inline constexpr int metricsSchemaVersion = 3;

/** Version of the binary trace file layout (--trace-raw). Mirrored by
 *  RawTraceHeader::version; kept here so `--version` can print every
 *  schema in one place. */
inline constexpr int rawTraceFormatVersion = 1;

/** Version of the epoch-timeline layout: the "timeline" stats-json
 *  section, the --timeline-out CSV and the TimelineAlert record shape
 *  (src/timeline/). Bump on any shape or detector-semantics change. */
inline constexpr int timelineSchemaVersion = 1;

/** Version of the run-ledger bundle layout (src/report/): the
 *  manifest.json shape, the entry directory naming scheme and the set
 *  of artifact files a bundle may carry. tlrreport refuses bundles
 *  from a different bundle schema. Bump on any layout change. */
inline constexpr int reportBundleSchemaVersion = 1;

/** Version of the `tlrreport --diff --json` document (one row object per
 *  DiffRow; src/metrics/statdiff). v2 drops v1's `host_threads_differ`
 *  and per-row `report_only` fields. Bump on any shape change. */
inline constexpr int diffJsonSchemaVersion = 2;

const char *buildCompiler(); ///< e.g. "gcc 13.2.0"
const char *buildFlags();    ///< CMAKE_CXX_FLAGS the library was built with
const char *buildGitSha();   ///< short HEAD sha at configure time
const char *buildType();     ///< CMAKE_BUILD_TYPE

/** The complete "meta" JSON object (one line, no trailing newline). */
std::string buildMetaJson();

/** The `--version` text shared by tlrsim/tlrquery/tlrreport: tool name,
 *  build metadata, and every schema version in one place. */
std::string versionString(const char *tool);

} // namespace tlr

#endif // TLR_SIM_BUILD_INFO_HH
