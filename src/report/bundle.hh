/**
 * @file
 * Run-ledger bundles: one self-describing directory per simulation run
 * (DESIGN.md §14).
 *
 * The paper's evaluation is a story told across many runs, but every
 * telemetry subsystem (trace, metrics, explain, timeline) emits an
 * isolated per-run artifact that a human must join by hand. A *run
 * bundle* packages everything one run produced — a versioned manifest
 * with the full resolved configuration, the stats-json dump (counters
 * plus the metrics and timeline sections), the timeline CSV, the
 * explain digest and optionally the raw binary trace — into one entry
 * of a *ledger* directory:
 *
 *   LEDGER/
 *     0001-single-counter-tlr-p4/
 *       manifest.json     versioned: config, result, build, schemas
 *       stats.json        the --stats-json document
 *       timeline.csv      when --timeline-epoch was on
 *       explain.txt       when --explain was on
 *       trace.bin         when --trace-raw was recorded
 *     0002-single-counter-tlr-p4/
 *       ...
 *
 * Entry names are `<seq>-<workload>-<scheme>-p<cpus>`: the sequence
 * number (max existing + 1) gives a stable run order without wall-
 * clock timestamps, so ledgers are reproducible and `tlrreport
 * --trend` can name *which run* a metric first regressed in — the
 * run-granularity analogue of --diff's first-diverging-epoch
 * localization.
 *
 * The manifest separates `sim` fields (deterministic inputs/outputs of
 * the simulation) from `host` fields (--jobs, a schedule knob that
 * must not affect results) and `build` metadata. tools/tlrreport
 * renders only the sim/result/schemas sections, which is what makes
 * the flight report byte-identical across hosts by construction.
 */

#ifndef TLR_REPORT_BUNDLE_HH
#define TLR_REPORT_BUNDLE_HH

#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/types.hh"

namespace tlr
{

/** Everything the manifest records about one run. */
struct BundleMeta
{
    /** @{ sim: deterministic configuration (rendered by tlrreport). */
    std::string workload;
    std::string scheme;   ///< schemeName() or tlrsim flag spelling
    std::string protocol = "broadcast";
    int cpus = 0;
    std::uint64_t ops = 0;
    std::uint64_t seed = 0;
    double theta = 0;
    unsigned keys = 0;
    unsigned partitions = 0;
    unsigned wbLines = 0;
    unsigned victimEntries = 0;
    Tick yieldTimeout = 0;
    Tick preemptEvery = 0;
    Tick preemptQuantum = 0;
    Tick maxTicks = 0;
    Tick timelineEpoch = 0;
    bool metrics = false;
    bool explain = false;
    bool checkInvariants = false;
    /** @} */

    /** @{ result: deterministic outcome (rendered by tlrreport). */
    bool completed = false;
    bool valid = false;
    Tick cycles = 0;
    std::uint64_t invariantViolations = 0;
    /** @} */

    /** host: sweep pool size; never changes simulated results (NOT
     *  rendered by tlrreport — byte-determinism contract). */
    unsigned jobs = 0;
};

/** The artifact payloads of one bundle entry. Empty string = absent
 *  (recorded as null in the manifest's artifact map). */
struct BundleArtifacts
{
    std::string statsJson;    ///< required: the --stats-json document
    std::string timelineCsv;  ///< EpochTimeline::csv() when enabled
    std::string explainText;  ///< Explainer::report() when enabled
    std::string rawTracePath; ///< copy bytes from this --trace-raw file
};

/** Render the versioned manifest document (exposed for tests). */
std::string renderManifest(const BundleMeta &meta,
                           const BundleArtifacts &art);

/** Create LEDGER/<seq>-<slug>/ (making the ledger directory if
 *  needed), write the manifest and every present artifact. Threads of
 *  one process may call it at once: appends are serialized, so each
 *  gets its own sequence number, in the order the appends arrive.
 *  @return the entry directory path; empty with @p err set on any
 *          filesystem failure. */
std::string writeRunBundle(const std::string &ledgerDir,
                           const BundleMeta &meta,
                           const BundleArtifacts &art, std::string &err);

/** One bundle read back from disk (tlrreport input). */
struct LoadedBundle
{
    std::string dir;         ///< entry directory path
    std::string name;        ///< entry directory basename
    JsonValue manifest;
    JsonValue stats;         ///< parsed stats.json
    std::string timelineCsv; ///< "" when absent
    std::string explainText; ///< "" when absent
    bool hasTrace = false;   ///< trace.bin present on disk
};

/** Load manifest + artifacts of one entry directory. @return false
 *  with @p err set when the manifest or stats document is missing,
 *  unparseable, or carries a different bundle schema version. */
bool loadBundle(const std::string &dir, LoadedBundle &out,
                std::string &err);

/** Bundle entry directories under @p ledgerDir, sorted by name (the
 *  sequence prefix makes that run order). Non-bundle entries (no
 *  manifest.json) are skipped. */
std::vector<std::string> listLedger(const std::string &ledgerDir);

} // namespace tlr

#endif // TLR_REPORT_BUNDLE_HH
