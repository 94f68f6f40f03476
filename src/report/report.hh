/**
 * @file
 * Flight-report rendering: one self-contained, byte-deterministic
 * HTML page per run bundle, plus cross-run diff and trend pages
 * (DESIGN.md §14).
 *
 * The renderer is a pure function of the bundle's *sim-deterministic*
 * content: the manifest's sim/result/schemas sections, the stats-json
 * counters, and the metrics/timeline sections. It never renders build
 * metadata, host info or wall-clock anything, and every SVG
 * coordinate is computed in integer math — so the same simulation
 * produces the same report bytes on any host, which is what makes
 * reports golden-testable (tools/CMakeLists.txt
 * fixtures, CI golden-report compare).
 *
 * Three pages:
 *
 *   renderFlightReport  one run: config + result banner, epoch-
 *                       timeline sparklines with detector-alert
 *                       markers and causal wait chains, latency
 *                       histograms with p50/p99, hottest locks,
 *                       per-class and per-link interconnect bytes,
 *                       invariant/validator status
 *   renderDiffHtml      two runs through src/metrics/statdiff: every
 *                       changed key, threshold violations highlighted,
 *                       first-diverging-epoch notes
 *   renderTrendHtml     a whole ledger: per-metric series across runs,
 *                       naming the first run whose value deviates from
 *                       the run-1 baseline beyond the threshold — the
 *                       run-granularity analogue of the diff's first-
 *                       diverging-epoch localization
 */

#ifndef TLR_REPORT_REPORT_HH
#define TLR_REPORT_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/statdiff.hh"
#include "report/bundle.hh"

namespace tlr
{

/** One metric's trajectory across a ledger. */
struct TrendRow
{
    std::string key;         ///< dotted stats path
    std::vector<double> series; ///< one value per run, run order
    double baseline = 0;     ///< value in the first run
    double final_ = 0;       ///< value in the last run
    double finalRelPct = 0;  ///< final vs baseline
    /** First run index whose |value vs baseline| exceeds the
     *  threshold; -1 = never (the metric drifted but stayed inside
     *  the threshold). */
    int firstRegressRun = -1;
    double firstVal = 0;     ///< value at that run
    double firstRelPct = 0;  ///< its deviation vs baseline
};

struct TrendReport
{
    std::string error;   ///< non-empty on structural failure
    bool schemaMismatch = false; ///< stats schemas differ across runs
    std::vector<std::string> runNames; ///< bundle entry names, run order
    std::vector<TrendRow> rows;        ///< keys that changed at all
    size_t compared = 0;  ///< keys present in every run
    size_t regressed = 0; ///< rows with firstRegressRun >= 0

    bool ok() const { return error.empty() && !schemaMismatch; }
};

/** Walk a ledger's bundles (run order) and localize, per metric, the
 *  first run that deviates from the run-1 baseline by more than
 *  @p thresholdPct percent. Per-epoch timeline keys are excluded
 *  (--diff already localizes those *within* a run). */
TrendReport analyzeTrend(const std::vector<LoadedBundle> &runs,
                         double thresholdPct);

/** The single-run flight report page. */
std::string renderFlightReport(const LoadedBundle &b);

/** The A-vs-B comparison page (the DiffReport renderDiff prints as text). */
std::string renderDiffHtml(const DiffReport &rep,
                           const DiffOptions &opt);

/** The cross-run trajectory page. */
std::string renderTrendHtml(const TrendReport &t, double thresholdPct);

/** Plain-text trend digest for stderr/CI logs: one "first regresses
 *  at run NAME" line per regressed metric plus a summary line. */
std::string trendSummaryText(const TrendReport &t, double thresholdPct);

/** @{ SVG primitives, exposed for tests (tests/test_report.cc pins
 *  the empty, single-point and single-bucket cases). All coordinates
 *  are integer math — byte-deterministic across hosts. */

/** Polyline sparkline of @p vals with vertical marker lines at
 *  @p markers = (index, css-class) positions. Empty input renders a
 *  placeholder, not an empty <svg>. */
std::string
svgSparkline(const std::vector<std::uint64_t> &vals,
             const std::vector<std::pair<size_t, std::string>> &markers,
             int w = 360, int h = 48);

/** Bar chart of sparse histogram @p buckets = (bucket floor, count)
 *  pairs (Histogram::json "buckets" layout). Empty input renders a
 *  placeholder. */
std::string svgHistogramBars(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> &buckets,
    int w = 360, int h = 64);
/** @} */

} // namespace tlr

#endif // TLR_REPORT_REPORT_HH
