/**
 * @file
 * Run-ledger bundle and flight-report tests (src/report/,
 * DESIGN.md §14): manifest round-trip, deterministic ledger
 * sequencing, cross-schema refusal, SVG edge cases (empty, single
 * point, single bucket), zero-epoch timeline rendering, bundles
 * without a raw trace, trend first-regressing-run localization
 * (including the single-entry ledger), the --diff --json document,
 * the TLR_REPORT env hook (scheme label, parallel appends), and HTML
 * byte-determinism across repeated identical runs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <latch>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "harness/sweep.hh"
#include "metrics/statdiff.hh"
#include "report/bundle.hh"
#include "report/report.hh"
#include "sim/build_info.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/micro.hh"

using namespace tlr;

namespace
{

/** Fresh scratch directory under TMPDIR; lives until process exit
 *  (the CI workspace is ephemeral, and keeping it aids debugging). */
std::string
scratchDir()
{
    char tmpl[] = "/tmp/tlr_report_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : ".";
}

BundleMeta
sampleMeta()
{
    BundleMeta m;
    m.workload = "single-counter";
    m.scheme = "BASE+SLE+TLR";
    m.cpus = 4;
    m.ops = 256;
    m.seed = 7;
    m.theta = 0.6;
    m.keys = 256;
    m.partitions = 4;
    m.wbLines = 64;
    m.victimEntries = 16;
    m.yieldTimeout = 1000;
    m.maxTicks = 1000000;
    m.metrics = true;
    m.completed = true;
    m.valid = true;
    m.cycles = 12345;
    m.jobs = 4;
    return m;
}

BundleArtifacts
sampleArtifacts(const std::string &statsDoc)
{
    BundleArtifacts a;
    a.statsJson = statsDoc;
    return a;
}

const char *kMinimalStats =
    "{\"schema_version\": 2, \"meta\": {}, "
    "\"counters\": {\"spec0.commits\": 100, \"spec0.restarts\": 3}}\n";

JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, v, err)) << err;
    return v;
}

/** Run a tiny real simulation through the TLR_REPORT env hook,
 *  appending a bundle to @p ledger. */
RunStats
runBundledSim(const std::string &ledger, std::uint64_t ops)
{
    ::setenv("TLR_REPORT", ledger.c_str(), 1);
    MachineParams mp;
    mp.numCpus = 4;
    mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
    mp.collectMetrics = true;
    mp.timelineEpoch = 1000;
    MicroParams p;
    p.numCpus = 4;
    p.totalOps = ops;
    RunStats r = runWorkload(mp, makeSingleCounter(p));
    ::unsetenv("TLR_REPORT");
    return r;
}

TEST(Bundle, ManifestRoundTrip)
{
    BundleMeta m = sampleMeta();
    BundleArtifacts a = sampleArtifacts(kMinimalStats);
    a.timelineCsv = "# header\n";
    JsonValue doc = parsed(renderManifest(m, a));

    const JsonValue *schema = doc.find("schema_version");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(static_cast<int>(schema->number),
              reportBundleSchemaVersion);
    EXPECT_EQ(resolvePath(doc, "sim.workload")->string, "single-counter");
    EXPECT_EQ(resolvePath(doc, "sim.scheme")->string, "BASE+SLE+TLR");
    EXPECT_EQ(resolvePath(doc, "sim.cpus")->number, 4);
    EXPECT_EQ(resolvePath(doc, "sim.seed")->number, 7);
    EXPECT_EQ(resolvePath(doc, "result.cycles")->number, 12345);
    EXPECT_TRUE(resolvePath(doc, "result.completed")->boolean);
    // Host-schedule knobs live in their own section, never in sim.
    EXPECT_EQ(resolvePath(doc, "host.jobs")->number, 4);
    EXPECT_EQ(resolvePath(doc, "sim.jobs"), nullptr);
    // Every schema version the bundle depends on is recorded.
    EXPECT_EQ(resolvePath(doc, "schemas.stats_json")->number,
              statsSchemaVersion);
    EXPECT_EQ(resolvePath(doc, "schemas.timeline")->number,
              timelineSchemaVersion);
    EXPECT_EQ(resolvePath(doc, "schemas.diff_json")->number,
              diffJsonSchemaVersion);
    // Present artifacts are named, absent ones are null.
    EXPECT_EQ(resolvePath(doc, "artifacts.timeline")->string,
              "timeline.csv");
    EXPECT_EQ(resolvePath(doc, "artifacts.trace")->kind,
              JsonValue::Kind::Null);
}

TEST(Bundle, LedgerSequencingAndLoad)
{
    std::string ledger = scratchDir();
    BundleMeta m = sampleMeta();
    BundleArtifacts a = sampleArtifacts(kMinimalStats);
    std::string err;
    for (int i = 0; i < 3; ++i) {
        std::string entry = writeRunBundle(ledger, m, a, err);
        ASSERT_FALSE(entry.empty()) << err;
    }
    std::vector<std::string> entries = listLedger(ledger);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_NE(entries[0].find("0001-single-counter-base-sle-tlr-p4"),
              std::string::npos);
    EXPECT_NE(entries[2].find("0003-"), std::string::npos);

    LoadedBundle b;
    ASSERT_TRUE(loadBundle(entries[1], b, err)) << err;
    EXPECT_EQ(b.name, "0002-single-counter-base-sle-tlr-p4");
    EXPECT_FALSE(b.hasTrace);
    EXPECT_TRUE(b.timelineCsv.empty());
    const JsonValue *counters = b.stats.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("spec0.commits")->number, 100);
}

TEST(Bundle, RefusesForeignSchemaVersion)
{
    std::string ledger = scratchDir();
    BundleMeta m = sampleMeta();
    BundleArtifacts a = sampleArtifacts(kMinimalStats);
    std::string err;
    std::string entry = writeRunBundle(ledger, m, a, err);
    ASSERT_FALSE(entry.empty()) << err;

    // Rewrite the manifest as a future bundle version.
    std::string manifest = renderManifest(m, a);
    size_t pos = manifest.find("\"schema_version\": ");
    ASSERT_NE(pos, std::string::npos);
    manifest.replace(pos, std::string("\"schema_version\": 1").size(),
                     "\"schema_version\": 999");
    FILE *f = std::fopen((entry + "/manifest.json").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(manifest.c_str(), f);
    std::fclose(f);

    LoadedBundle b;
    EXPECT_FALSE(loadBundle(entry, b, err));
    EXPECT_NE(err.find("schema_version 999"), std::string::npos) << err;
}

TEST(Svg, SparklineEdgeCases)
{
    // Empty series renders a placeholder, not a degenerate <svg>.
    EXPECT_NE(svgSparkline({}, {}).find("no epochs"), std::string::npos);
    // A single point still produces visible geometry.
    std::string one = svgSparkline({5}, {});
    EXPECT_NE(one.find("<polyline"), std::string::npos);
    // Markers at valid indices emit one line each; out-of-range
    // markers are dropped.
    std::string marked =
        svgSparkline({1, 2, 3}, {{1, "convoy"}, {99, "convoy"}});
    size_t first = marked.find("class=\"mk convoy\"");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(marked.find("class=\"mk convoy\"", first + 1),
              std::string::npos);
    // All-zero series stays on the baseline without dividing by zero.
    EXPECT_NE(svgSparkline({0, 0, 0}, {}).find("<polyline"),
              std::string::npos);
}

TEST(Svg, HistogramEdgeCases)
{
    EXPECT_NE(svgHistogramBars({}).find("no samples"), std::string::npos);
    // A single bucket fills (nearly) the full width.
    std::string one = svgHistogramBars({{8, 42}});
    EXPECT_NE(one.find("<rect"), std::string::npos);
    // A non-empty bucket dwarfed by the max still gets >= 1px.
    std::string tiny = svgHistogramBars({{0, 1}, {8, 1000000}});
    EXPECT_EQ(tiny.find("height=\"0\""), std::string::npos);
}

TEST(Report, ZeroEpochTimelineRenders)
{
    LoadedBundle b;
    b.name = "0001-test";
    b.manifest = parsed(
        renderManifest(sampleMeta(), sampleArtifacts(kMinimalStats)));
    b.stats = parsed(
        "{\"schema_version\": 2, \"counters\": {}, "
        "\"timeline\": {\"schema\": 1, \"epoch_len\": 1000, "
        "\"final_tick\": 0, \"epochs\": [], \"alerts\": []}}");
    std::string html = renderFlightReport(b);
    EXPECT_NE(html.find("0 epochs"), std::string::npos);
    EXPECT_NE(html.find("no epochs"), std::string::npos);
    EXPECT_NE(html.find("no detector alerts"), std::string::npos);
}

TEST(Report, FullBundleViaEnvHookAndDeterminism)
{
    std::string ledgerA = scratchDir();
    std::string ledgerB = scratchDir();
    RunStats r1 = runBundledSim(ledgerA, 200);
    RunStats r2 = runBundledSim(ledgerB, 200);
    EXPECT_TRUE(r1.completed && r1.valid);
    EXPECT_EQ(r1.cycles, r2.cycles);

    std::vector<std::string> ea = listLedger(ledgerA);
    std::vector<std::string> eb = listLedger(ledgerB);
    ASSERT_EQ(ea.size(), 1u);
    ASSERT_EQ(eb.size(), 1u);

    LoadedBundle a, b;
    std::string err;
    ASSERT_TRUE(loadBundle(ea[0], a, err)) << err;
    ASSERT_TRUE(loadBundle(eb[0], b, err)) << err;
    EXPECT_FALSE(a.hasTrace); // env hook records no raw trace

    std::string htmlA = renderFlightReport(a);
    std::string htmlB = renderFlightReport(b);
    // Two identical simulations -> byte-identical flight reports.
    EXPECT_EQ(htmlA, htmlB);
    // The substantive sections all rendered.
    EXPECT_NE(htmlA.find("Epoch timeline"), std::string::npos);
    EXPECT_NE(htmlA.find("Latency distributions"), std::string::npos);
    EXPECT_NE(htmlA.find("Hottest locks"), std::string::npos);
    EXPECT_NE(htmlA.find("Interconnect traffic"), std::string::npos);
    // Nothing host-dependent leaked into the page.
    EXPECT_EQ(htmlA.find("git"), std::string::npos);
    EXPECT_EQ(htmlA.find("compiler"), std::string::npos);
}

TEST(Report, EnvHookFilesRunSchemeUnderItsSchemeName)
{
    // MCS has BASE's spec flags; runScheme still knows which it ran.
    std::string ledger = scratchDir();
    MicroParams p;
    p.numCpus = 2;
    p.totalOps = 32;
    p.lockKind = schemeLockKind(Scheme::Mcs);
    ::setenv("TLR_REPORT", ledger.c_str(), 1);
    RunStats r = runScheme(Scheme::Mcs, 2, makeSingleCounter(p));
    ::unsetenv("TLR_REPORT");
    EXPECT_TRUE(r.completed && r.valid);

    std::vector<std::string> entries = listLedger(ledger);
    ASSERT_EQ(entries.size(), 1u);
    LoadedBundle b;
    std::string err;
    ASSERT_TRUE(loadBundle(entries[0], b, err)) << err;
    EXPECT_EQ(resolvePath(b.manifest, "sim.scheme")->string, "MCS");
    EXPECT_EQ(b.name, "0001-single-counter-mcs-p2");
}

TEST(Report, EnvHookUnderParallelSweepNumbersEveryEntry)
{
    // Sweep workers append to one ledger at once; no two entries may
    // share a sequence number (a shared slug would overwrite). Each of
    // the 4 workers takes one of tasks 0-3 first; the latch starts
    // those identical simulations together so their appends collide.
    std::string ledger = scratchDir();
    std::latch start(4);
    std::vector<SweepTask> tasks;
    for (int i = 0; i < 6; ++i) {
        tasks.push_back({"t" + std::to_string(i), [i, &start] {
                             if (i < 4)
                                 start.arrive_and_wait();
                             MicroParams p;
                             p.numCpus = 2;
                             p.totalOps = 32;
                             return runScheme(Scheme::BaseSleTlr, 2,
                                              makeSingleCounter(p));
                         }});
    }
    ::setenv("TLR_REPORT", ledger.c_str(), 1);
    std::vector<SweepResult> res = runSweep(tasks, 4);
    ::unsetenv("TLR_REPORT");
    ASSERT_EQ(res.size(), 6u);

    std::vector<std::string> entries = listLedger(ledger);
    ASSERT_EQ(entries.size(), 6u);
    for (size_t i = 0; i < entries.size(); ++i) {
        std::string want =
            strfmt("/%04zu-single-counter-base-sle-tlr-p2", i + 1);
        EXPECT_EQ(entries[i].substr(entries[i].size() - want.size()),
                  want);
    }
}

/** Three-run ledger with a regression injected at the third run. */
std::vector<LoadedBundle>
syntheticLedger()
{
    const char *docs[3] = {
        "{\"schema_version\": 2, \"counters\": {\"a.cycles\": 100, "
        "\"a.steady\": 50, \"b.wall_sec\": 1.0}}",
        "{\"schema_version\": 2, \"counters\": {\"a.cycles\": 105, "
        "\"a.steady\": 50, \"b.wall_sec\": 2.0}}",
        "{\"schema_version\": 2, \"counters\": {\"a.cycles\": 200, "
        "\"a.steady\": 50, \"b.wall_sec\": 9.0}}",
    };
    std::vector<LoadedBundle> runs(3);
    for (int i = 0; i < 3; ++i) {
        runs[i].name = std::string("000") + std::to_string(i + 1) +
                       "-single-counter-tlr-p4";
        runs[i].stats = parsed(docs[i]);
    }
    return runs;
}

TEST(Trend, NamesFirstRegressingRun)
{
    std::vector<LoadedBundle> runs = syntheticLedger();
    TrendReport t = analyzeTrend(runs, 20.0);
    ASSERT_TRUE(t.ok()) << t.error;
    EXPECT_EQ(t.compared, 3u);
    EXPECT_EQ(t.regressed, 2u);

    const TrendRow *cycles = nullptr, *wall = nullptr;
    for (const TrendRow &r : t.rows) {
        if (r.key == "counters.a.cycles")
            cycles = &r;
        if (r.key == "counters.b.wall_sec")
            wall = &r;
    }
    ASSERT_NE(cycles, nullptr);
    // +5% at run 2 is inside the 20% threshold; run 3 is the first
    // regressing run.
    EXPECT_EQ(cycles->firstRegressRun, 2);
    EXPECT_EQ(cycles->firstVal, 200);
    // A host-time key gates like any other: +100% at run 2.
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->firstRegressRun, 1);

    std::string text = trendSummaryText(t, 20.0);
    EXPECT_NE(text.find("counters.a.cycles first regresses at run "
                        "0003-single-counter-tlr-p4"),
              std::string::npos)
        << text;
    std::string html = renderTrendHtml(t, 20.0);
    EXPECT_NE(html.find("0003-single-counter-tlr-p4"),
              std::string::npos);
}

TEST(Trend, SingleEntryLedgerIsCleanBaseline)
{
    std::vector<LoadedBundle> runs = syntheticLedger();
    runs.resize(1);
    TrendReport t = analyzeTrend(runs, 20.0);
    ASSERT_TRUE(t.ok()) << t.error;
    EXPECT_EQ(t.compared, 3u);
    EXPECT_EQ(t.regressed, 0u);
    EXPECT_TRUE(t.rows.empty()); // nothing changed vs itself
    EXPECT_NE(renderTrendHtml(t, 20.0).find("every metric is identical"),
              std::string::npos);
}

TEST(Trend, RefusesMixedStatsSchemas)
{
    std::vector<LoadedBundle> runs = syntheticLedger();
    runs[2].stats = parsed("{\"schema_version\": 3, \"counters\": {}}");
    TrendReport t = analyzeTrend(runs, 20.0);
    EXPECT_TRUE(t.schemaMismatch);
    EXPECT_NE(t.error.find("schema_version"), std::string::npos);
}

TEST(DiffJson, DocumentShape)
{
    DiffOptions opt;
    opt.thresholdPct = 10.0;
    opt.oldName = "a.json";
    opt.newName = "b.json";
    JsonValue oldDoc = parsed(
        "{\"schema_version\": 2, "
        "\"counters\": {\"x.n\": 100, \"gone\": 1}}");
    JsonValue newDoc = parsed(
        "{\"schema_version\": 2, "
        "\"counters\": {\"x.n\": 150, \"added\": 1}}");
    DiffReport rep = diffStats(oldDoc, newDoc, opt);
    JsonValue doc = parsed(renderDiffJson(rep, opt));

    EXPECT_EQ(resolvePath(doc, "schema_version")->number,
              diffJsonSchemaVersion);
    EXPECT_FALSE(resolvePath(doc, "refused")->boolean);
    const JsonValue *rows = doc.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->isArray());
    ASSERT_EQ(rows->elements.size(), 1u);
    const JsonValue &row = rows->elements[0];
    EXPECT_EQ(row.find("key")->string, "counters.x.n");
    EXPECT_TRUE(row.find("exceeded")->boolean);
    EXPECT_EQ(row.find("report_only"), nullptr);
    EXPECT_EQ(doc.find("host_threads_differ"), nullptr);
    EXPECT_EQ(doc.find("only_old")->elements.size(), 1u);
    EXPECT_EQ(doc.find("only_new")->elements.size(), 1u);

    // The refusal document is also well-formed JSON.
    JsonValue newSchema = parsed("{\"schema_version\": 3}");
    DiffReport refused = diffStats(oldDoc, newSchema, opt);
    JsonValue rdoc = parsed(renderDiffJson(refused, opt));
    EXPECT_TRUE(resolvePath(rdoc, "refused")->boolean);
    EXPECT_EQ(resolvePath(rdoc, "refusal")->string, "schema_mismatch");
}

TEST(DiffHtml, RendersChangedRowsAndRefusals)
{
    DiffOptions opt;
    opt.oldName = "a";
    opt.newName = "b";
    JsonValue oldDoc =
        parsed("{\"schema_version\": 2, \"counters\": {\"x.n\": 100}}");
    JsonValue newDoc =
        parsed("{\"schema_version\": 2, \"counters\": {\"x.n\": 150}}");
    DiffReport rep = diffStats(oldDoc, newDoc, opt);
    std::string html = renderDiffHtml(rep, opt);
    EXPECT_NE(html.find("counters.x.n"), std::string::npos);
    EXPECT_NE(html.find("EXCEEDS"), std::string::npos);

    JsonValue legacy = parsed("{\"x\": 1}");
    DiffReport refused = diffStats(oldDoc, legacy, opt);
    std::string rhtml = renderDiffHtml(refused, opt);
    EXPECT_NE(rhtml.find("schema mismatch"), std::string::npos);
}

} // namespace
