#include "report/report.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "sim/build_info.hh"
#include "sim/logging.hh"

namespace tlr
{

namespace
{

using U64 = std::uint64_t;

std::string
htmlEsc(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '"': out += "&quot;"; break;
        default: out += c;
        }
    }
    return out;
}

/** Counters are exact integers travelling as doubles; print them as
 *  integers (not 1.23457e+06) and everything else as round-tripping
 *  %.6g. Pure function of the value — no locale, no host variance. */
std::string
fmtNum(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    if (v == std::floor(v) && std::fabs(v) < 9.0e15)
        return strfmt("%lld", static_cast<long long>(v));
    return strfmt("%.6g", v);
}

double
numAt(const JsonValue &root, const std::string &path, double dflt = 0)
{
    const JsonValue *v = resolvePath(root, path);
    return v && v->isNumber() ? v->number : dflt;
}

std::string
strAt(const JsonValue &root, const std::string &path)
{
    const JsonValue *v = resolvePath(root, path);
    return v && v->kind == JsonValue::Kind::String ? v->string : "";
}

bool
boolAt(const JsonValue &root, const std::string &path)
{
    const JsonValue *v = resolvePath(root, path);
    return v && v->kind == JsonValue::Kind::Bool && v->boolean;
}

/** Integer permille → "12.3%" strings without float rounding
 *  variance. */
std::string
pctOf(U64 part, U64 total)
{
    if (total == 0)
        return "0.0%";
    U64 permille = part * 1000 / total;
    return strfmt("%llu.%llu%%",
                  static_cast<unsigned long long>(permille / 10),
                  static_cast<unsigned long long>(permille % 10));
}

const char *kCss =
    "body{font:14px/1.45 -apple-system,'Segoe UI',sans-serif;"
    "margin:24px auto;max-width:960px;color:#1a1a2e;padding:0 16px}"
    "h1{font-size:22px;margin-bottom:2px}"
    "h2{font-size:16px;border-bottom:1px solid #d8d8e0;"
    "padding-bottom:3px;margin-top:28px}"
    ".sub{color:#555;margin-top:0}"
    "table{border-collapse:collapse;margin:8px 0}"
    "th,td{border:1px solid #d8d8e0;padding:3px 9px;text-align:right;"
    "font-variant-numeric:tabular-nums}"
    "th{background:#f0f0f5;text-align:center}"
    "td.k,th.k{text-align:left;font-family:ui-monospace,monospace;"
    "font-size:12px}"
    ".banner{padding:8px 12px;border-radius:5px;margin:12px 0;"
    "font-weight:600}"
    ".ok{background:#e3f4e3;color:#1a5c1a}"
    ".bad{background:#fae3e3;color:#7a1f1f}"
    ".muted{color:#888;font-style:italic}"
    ".spark{background:#fafafc;border:1px solid #e4e4ec}"
    ".sparkrow td{border:none;padding:2px 9px}"
    "polyline{fill:none;stroke:#3a5fa0;stroke-width:1}"
    "rect.bar{fill:#6a88c0}"
    "line.mk{stroke-width:2;opacity:.75}"
    "line.mk.restart-storm{stroke:#c03030}"
    "line.mk.convoy{stroke:#c08a20}"
    "line.mk.starvation{stroke:#8030a0}"
    "line.mk.throughput-collapse{stroke:#b03060}"
    ".chain{font-family:ui-monospace,monospace;font-size:12px}"
    "footer{margin-top:32px;color:#999;font-size:12px;"
    "border-top:1px solid #e4e4ec;padding-top:8px}";

void
openPage(std::ostringstream &os, const std::string &title)
{
    os << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
       << "<title>" << htmlEsc(title) << "</title>\n<style>" << kCss
       << "</style>\n</head>\n<body>\n";
}

void
closePage(std::ostringstream &os, const std::string &note)
{
    os << "<footer>generated by tlrreport &middot; bundle schema v"
       << reportBundleSchemaVersion << note << "</footer>\n"
       << "</body>\n</html>\n";
}

} // namespace

std::string
svgSparkline(const std::vector<U64> &vals,
             const std::vector<std::pair<size_t, std::string>> &markers,
             int w, int h)
{
    if (vals.empty())
        return "<span class=\"muted\">(no epochs)</span>";
    U64 maxv = *std::max_element(vals.begin(), vals.end());
    std::ostringstream os;
    os << "<svg class=\"spark\" width=\"" << w << "\" height=\"" << h
       << "\" viewBox=\"0 0 " << w << " " << h << "\">";
    const U64 uw = static_cast<U64>(w), uh = static_cast<U64>(h);
    auto xAt = [&](size_t i) {
        return vals.size() == 1
                   ? U64{0}
                   : static_cast<U64>(i) * (uw - 1) / (vals.size() - 1);
    };
    for (const auto &[idx, cls] : markers) {
        if (idx >= vals.size())
            continue;
        U64 x = xAt(idx);
        os << "<line class=\"mk " << htmlEsc(cls) << "\" x1=\"" << x
           << "\" y1=\"0\" x2=\"" << x << "\" y2=\"" << h << "\"/>";
    }
    os << "<polyline points=\"";
    for (size_t i = 0; i < vals.size(); ++i) {
        U64 x = xAt(i);
        U64 y = (uh - 1) - (maxv ? vals[i] * (uh - 1) / maxv : 0);
        os << (i ? " " : "") << x << "," << y;
    }
    // A single point draws nothing as a polyline; duplicate it into a
    // visible dash.
    if (vals.size() == 1)
        os << " " << (uw - 1) / 8 << ","
           << (uh - 1) - (maxv ? (uh - 1) : 0);
    os << "\"/></svg>";
    return os.str();
}

std::string
svgHistogramBars(const std::vector<std::pair<U64, U64>> &buckets, int w,
                 int h)
{
    if (buckets.empty())
        return "<span class=\"muted\">(no samples)</span>";
    U64 maxc = 0;
    for (const auto &[lo, count] : buckets) {
        (void)lo;
        maxc = std::max(maxc, count);
    }
    std::ostringstream os;
    os << "<svg class=\"spark\" width=\"" << w << "\" height=\"" << h
       << "\" viewBox=\"0 0 " << w << " " << h << "\">";
    const U64 uw = static_cast<U64>(w), uh = static_cast<U64>(h);
    const size_t n = buckets.size();
    for (size_t i = 0; i < n; ++i) {
        U64 x0 = static_cast<U64>(i) * uw / n;
        U64 x1 = static_cast<U64>(i + 1) * uw / n;
        U64 bw = x1 > x0 + 1 ? x1 - x0 - 1 : 1;
        U64 count = buckets[i].second;
        U64 bh = maxc ? count * (uh - 1) / maxc : 0;
        if (count > 0 && bh == 0)
            bh = 1; // never hide a non-empty bucket entirely
        if (bh == 0)
            continue;
        os << "<rect class=\"bar\" x=\"" << x0 << "\" y=\"" << (uh - bh)
           << "\" width=\"" << bw << "\" height=\"" << bh << "\"/>";
    }
    os << "</svg>";
    return os.str();
}

namespace
{

void
sectionConfig(std::ostringstream &os, const JsonValue &man)
{
    os << "<h2>Configuration</h2>\n<table>\n";
    struct Field
    {
        const char *label;
        const char *path;
        bool isString;
    };
    static const Field kFields[] = {
        {"workload", "sim.workload", true},
        {"scheme", "sim.scheme", true},
        {"protocol", "sim.protocol", true},
        {"cpus", "sim.cpus", false},
        {"ops", "sim.ops", false},
        {"seed", "sim.seed", false},
        {"theta", "sim.theta", false},
        {"keys", "sim.keys", false},
        {"partitions", "sim.partitions", false},
        {"wb lines", "sim.wb_lines", false},
        {"victim entries", "sim.victim_entries", false},
        {"yield timeout", "sim.yield_timeout", false},
        {"preempt every", "sim.preempt_every", false},
        {"preempt quantum", "sim.preempt_quantum", false},
        {"max ticks", "sim.max_ticks", false},
        {"timeline epoch", "sim.timeline_epoch", false},
    };
    os << "<tr>";
    int col = 0;
    for (const Field &f : kFields) {
        if (col == 4) {
            os << "</tr>\n<tr>";
            col = 0;
        }
        std::string val = f.isString ? htmlEsc(strAt(man, f.path))
                                     : fmtNum(numAt(man, f.path));
        os << "<th class=\"k\">" << f.label << "</th><td>" << val
           << "</td>";
        ++col;
    }
    os << "</tr>\n</table>\n";
    os << "<p class=\"sub\">schemas: stats-json v"
       << fmtNum(numAt(man, "schemas.stats_json")) << " &middot; metrics v"
       << fmtNum(numAt(man, "schemas.metrics")) << " &middot; timeline v"
       << fmtNum(numAt(man, "schemas.timeline")) << " &middot; raw-trace v"
       << fmtNum(numAt(man, "schemas.raw_trace")) << "</p>\n";
}

void
sectionBanner(std::ostringstream &os, const JsonValue &man)
{
    bool completed = boolAt(man, "result.completed");
    bool valid = boolAt(man, "result.valid");
    double violations = numAt(man, "result.invariant_violations");
    bool good = completed && valid && violations == 0;
    os << "<div class=\"banner " << (good ? "ok" : "bad") << "\">"
       << (completed ? "completed" : "DID NOT COMPLETE") << " in "
       << fmtNum(numAt(man, "result.cycles")) << " cycles &middot; "
       << (valid ? "workload validation passed"
                 : "WORKLOAD VALIDATION FAILED")
       << " &middot; " << fmtNum(violations)
       << " invariant violation(s)</div>\n";
}

/** Aggregate "groupN.leaf" counters by leaf across a numbered group
 *  family ("spec", "l1_", "core"). */
std::map<std::string, U64>
sumGroupFamily(const JsonValue &counters, const std::string &family)
{
    std::map<std::string, U64> out;
    for (const auto &[key, v] : counters.members) {
        if (key.compare(0, family.size(), family) != 0 || !v.isNumber())
            continue;
        size_t i = family.size();
        while (i < key.size() && key[i] >= '0' && key[i] <= '9')
            ++i;
        if (i == family.size() || i >= key.size() || key[i] != '.')
            continue;
        out[key.substr(i + 1)] += static_cast<U64>(v.number);
    }
    return out;
}

void
sectionCounters(std::ostringstream &os, const JsonValue &stats)
{
    const JsonValue *counters = stats.find("counters");
    os << "<h2>Headline counters</h2>\n";
    if (!counters || !counters->isObject()) {
        os << "<p class=\"muted\">no counters section</p>\n";
        return;
    }
    auto spec = sumGroupFamily(*counters, "spec");
    auto l1 = sumGroupFamily(*counters, "l1_");

    U64 commits = spec["commits"], elisions = spec["elisions"];
    U64 restarts = spec["restarts"], fallbacks = spec["fallbacks"];
    U64 attempts = commits + restarts + fallbacks;
    os << "<table>\n<tr><th>lock acquires elided</th>"
       << "<th>speculative commits</th><th>restarts</th>"
       << "<th>fallbacks to lock</th><th>restart rate</th></tr>\n"
       << "<tr><td>" << elisions << "</td><td>" << commits << "</td><td>"
       << restarts << "</td><td>" << fallbacks << "</td><td>"
       << pctOf(restarts, attempts ? attempts : 1) << "</td></tr>\n"
       << "</table>\n";

    U64 hits = l1["hits"], misses = l1["misses"];
    os << "<table>\n<tr><th>L1 hits</th><th>L1 misses</th>"
       << "<th>read-defers</th><th>bus transactions</th>"
       << "<th>probe msgs</th><th>data msgs</th><th>marker msgs</th>"
       << "</tr>\n<tr><td>" << hits << "</td><td>" << misses
       << "</td><td>" << l1["defers"] << "</td><td>"
       << fmtNum(numAt(stats, "counters.bus.transactions")) << "</td><td>"
       << fmtNum(numAt(stats, "counters.net.probeMsgs")) << "</td><td>"
       << fmtNum(numAt(stats, "counters.net.dataMsgs")) << "</td><td>"
       << fmtNum(numAt(stats, "counters.net.markerMsgs"))
       << "</td></tr>\n</table>\n";
}

void
sectionTimeline(std::ostringstream &os, const JsonValue &stats)
{
    os << "<h2>Epoch timeline</h2>\n";
    const JsonValue *tl = stats.find("timeline");
    if (!tl || !tl->isObject()) {
        os << "<p class=\"muted\">not recorded (run with "
              "--timeline-epoch=N)</p>\n";
        return;
    }
    const JsonValue *epochs = tl->find("epochs");
    size_t n = epochs && epochs->isArray() ? epochs->elements.size() : 0;
    os << "<p class=\"sub\">" << n << " epochs of "
       << fmtNum(numAt(*tl, "epoch_len")) << " cycles, final tick "
       << fmtNum(numAt(*tl, "final_tick")) << "</p>\n";

    // Alert markers land on every sparkline so a storm epoch is
    // visible no matter which series the eye is on.
    std::vector<std::pair<size_t, std::string>> markers;
    const JsonValue *alerts = tl->find("alerts");
    if (alerts && alerts->isArray()) {
        for (const JsonValue &a : alerts->elements) {
            std::string kind = strAt(a, "kind");
            markers.emplace_back(static_cast<size_t>(numAt(a, "epoch")),
                                 kind);
        }
    }

    static const char *kSeries[] = {"commits", "restarts", "defers",
                                    "defer_wait_max", "max_queue"};
    os << "<table>\n";
    for (const char *field : kSeries) {
        std::vector<U64> vals;
        U64 peak = 0;
        if (epochs && epochs->isArray()) {
            for (const JsonValue &e : epochs->elements) {
                U64 v = static_cast<U64>(numAt(e, field));
                vals.push_back(v);
                peak = std::max(peak, v);
            }
        }
        os << "<tr class=\"sparkrow\"><td class=\"k\">" << field
           << "</td><td>" << svgSparkline(vals, markers) << "</td><td>peak "
           << peak << "</td></tr>\n";
    }
    os << "</table>\n";

    if (!alerts || !alerts->isArray() || alerts->elements.empty()) {
        os << "<p class=\"muted\">no detector alerts</p>\n";
        return;
    }
    os << "<h2>Detector alerts</h2>\n<table>\n"
       << "<tr><th>kind</th><th>epoch</th><th>line</th><th>value</th>"
       << "<th>threshold</th><th class=\"k\">causal wait chain</th>"
       << "</tr>\n";
    for (const JsonValue &a : alerts->elements) {
        os << "<tr><td class=\"k\">" << htmlEsc(strAt(a, "kind"))
           << "</td><td>" << fmtNum(numAt(a, "epoch")) << "</td><td>"
           << strfmt("0x%llx", static_cast<unsigned long long>(
                                   numAt(a, "line")))
           << "</td><td>" << fmtNum(numAt(a, "value")) << "</td><td>"
           << fmtNum(numAt(a, "threshold")) << "</td><td class=\"chain\">"
           << htmlEsc(strAt(a, "chain")) << "</td></tr>\n";
    }
    os << "</table>\n";
}

void
sectionHistograms(std::ostringstream &os, const JsonValue &stats)
{
    os << "<h2>Latency distributions</h2>\n";
    const JsonValue *hists = resolvePath(stats, "metrics.histograms");
    if (!hists || !hists->isObject()) {
        os << "<p class=\"muted\">not recorded (run with --metrics)"
           << "</p>\n";
        return;
    }
    os << "<table>\n<tr><th class=\"k\">histogram</th><th>shape</th>"
       << "<th>count</th><th>mean</th><th>p50</th><th>p99</th>"
       << "<th>max</th></tr>\n";
    for (const auto &[name, h] : hists->members) {
        std::vector<std::pair<U64, U64>> buckets;
        const JsonValue *bk = h.find("buckets");
        if (bk && bk->isArray()) {
            for (const JsonValue &b : bk->elements) {
                if (b.isArray() && b.elements.size() == 2)
                    buckets.emplace_back(
                        static_cast<U64>(b.elements[0].number),
                        static_cast<U64>(b.elements[1].number));
            }
        }
        os << "<tr><td class=\"k\">" << htmlEsc(name) << "</td><td>"
           << svgHistogramBars(buckets) << "</td><td>"
           << fmtNum(numAt(h, "count")) << "</td><td>"
           << fmtNum(numAt(h, "mean")) << "</td><td>"
           << fmtNum(numAt(h, "p50")) << "</td><td>"
           << fmtNum(numAt(h, "p99")) << "</td><td>"
           << fmtNum(numAt(h, "max")) << "</td></tr>\n";
    }
    os << "</table>\n";
}

void
sectionLocks(std::ostringstream &os, const JsonValue &stats)
{
    os << "<h2>Hottest locks</h2>\n";
    const JsonValue *locks = resolvePath(stats, "metrics.locks");
    if (!locks || !locks->isArray()) {
        os << "<p class=\"muted\">not recorded (run with --metrics)"
           << "</p>\n";
        return;
    }
    const JsonValue *aborts = resolvePath(stats, "metrics.aborts");
    if (aborts && aborts->isObject())
        os << "<p class=\"sub\">abort rate "
           << fmtNum(numAt(*aborts, "abort_rate")) << " over "
           << fmtNum(numAt(*aborts, "commits"))
           << " commits; hottest lock "
           << strfmt("0x%llx", static_cast<unsigned long long>(
                                   numAt(*aborts, "hottest_lock")))
           << " (contention score "
           << fmtNum(numAt(*aborts, "hottest_lock_contention"))
           << ")</p>\n";

    struct LockRow
    {
        U64 trouble; // restarts + fallbacks + defers
        U64 addr;
        const JsonValue *v;
    };
    std::vector<LockRow> rows;
    for (const JsonValue &l : locks->elements) {
        LockRow r;
        r.addr = static_cast<U64>(numAt(l, "addr"));
        r.trouble = static_cast<U64>(numAt(l, "restarts")) +
                    static_cast<U64>(numAt(l, "fallbacks")) +
                    static_cast<U64>(numAt(l, "defers"));
        r.v = &l;
        rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end(),
              [](const LockRow &a, const LockRow &b) {
                  return a.trouble != b.trouble ? a.trouble > b.trouble
                                                : a.addr < b.addr;
              });
    const size_t kTop = 8;
    os << "<table>\n<tr><th class=\"k\">lock</th><th>elisions</th>"
       << "<th>acquires</th><th>commits</th><th>restarts</th>"
       << "<th>fallbacks</th><th>defers</th><th>occupancy</th></tr>\n";
    for (size_t i = 0; i < rows.size() && i < kTop; ++i) {
        const JsonValue &l = *rows[i].v;
        os << "<tr><td class=\"k\">"
           << strfmt("0x%llx",
                     static_cast<unsigned long long>(rows[i].addr))
           << "</td><td>" << fmtNum(numAt(l, "elisions")) << "</td><td>"
           << fmtNum(numAt(l, "acquires")) << "</td><td>"
           << fmtNum(numAt(l, "commits")) << "</td><td>"
           << fmtNum(numAt(l, "restarts")) << "</td><td>"
           << fmtNum(numAt(l, "fallbacks")) << "</td><td>"
           << fmtNum(numAt(l, "defers")) << "</td><td>"
           << fmtNum(numAt(l, "occupancy_ticks")) << "</td></tr>\n";
    }
    os << "</table>\n";
    if (rows.size() > kTop)
        os << "<p class=\"muted\">" << (rows.size() - kTop)
           << " colder lock(s) omitted</p>\n";
}

void
sectionInterconnect(std::ostringstream &os, const JsonValue &stats)
{
    os << "<h2>Interconnect traffic</h2>\n";
    const JsonValue *ic = resolvePath(stats, "metrics.interconnect");
    if (!ic || !ic->isObject()) {
        os << "<p class=\"muted\">not recorded (run with --metrics)"
           << "</p>\n";
        return;
    }
    const JsonValue *types = ic->find("types");
    if (types && types->isObject()) {
        U64 totalBytes = 0;
        for (const auto &[name, t] : types->members) {
            (void)name;
            totalBytes += static_cast<U64>(numAt(t, "bytes"));
        }
        os << "<table>\n<tr><th class=\"k\">message class</th>"
           << "<th>count</th><th>bytes</th><th>share</th></tr>\n";
        for (const auto &[name, t] : types->members) {
            U64 bytes = static_cast<U64>(numAt(t, "bytes"));
            os << "<tr><td class=\"k\">" << htmlEsc(name) << "</td><td>"
               << fmtNum(numAt(t, "count")) << "</td><td>" << bytes
               << "</td><td>" << pctOf(bytes, totalBytes)
               << "</td></tr>\n";
        }
        os << "</table>\n";
    }
    const JsonValue *links = ic->find("links");
    if (!links || !links->isArray() || links->elements.empty())
        return;
    struct LinkRow
    {
        U64 bytes;
        std::string from, to;
        const JsonValue *v;
    };
    std::vector<LinkRow> rows;
    for (const JsonValue &l : links->elements)
        rows.push_back({static_cast<U64>(numAt(l, "bytes")),
                        strAt(l, "from"), strAt(l, "to"), &l});
    std::sort(rows.begin(), rows.end(),
              [](const LinkRow &a, const LinkRow &b) {
                  if (a.bytes != b.bytes)
                      return a.bytes > b.bytes;
                  if (a.from != b.from)
                      return a.from < b.from;
                  return a.to < b.to;
              });
    const size_t kTop = 16;
    os << "<table>\n<tr><th class=\"k\">link</th><th>messages</th>"
       << "<th>bytes</th></tr>\n";
    for (size_t i = 0; i < rows.size() && i < kTop; ++i) {
        os << "<tr><td class=\"k\">" << htmlEsc(rows[i].from)
           << " &rarr; " << htmlEsc(rows[i].to) << "</td><td>"
           << fmtNum(numAt(*rows[i].v, "count")) << "</td><td>"
           << rows[i].bytes << "</td></tr>\n";
    }
    os << "</table>\n";
    if (rows.size() > kTop)
        os << "<p class=\"muted\">" << (rows.size() - kTop)
           << " quieter link(s) omitted</p>\n";
}

void
sectionArtifacts(std::ostringstream &os, const LoadedBundle &b)
{
    os << "<h2>Bundle artifacts</h2>\n<ul>\n";
    os << "<li>stats.json</li>\n";
    if (!b.timelineCsv.empty())
        os << "<li>timeline.csv</li>\n";
    if (!b.explainText.empty())
        os << "<li>explain.txt</li>\n";
    if (b.hasTrace)
        os << "<li>trace.bin (replayable with tlrquery)</li>\n";
    os << "</ul>\n";
}

} // namespace

std::string
renderFlightReport(const LoadedBundle &b)
{
    const JsonValue &man = b.manifest;
    std::string workload = strAt(man, "sim.workload");
    std::string scheme = strAt(man, "sim.scheme");
    std::ostringstream os;
    openPage(os, "TLR flight report — " + workload + " / " + scheme);
    os << "<h1>TLR flight report</h1>\n<p class=\"sub\">"
       << htmlEsc(workload) << " &middot; " << htmlEsc(scheme)
       << " &middot; " << htmlEsc(strAt(man, "sim.protocol"))
       << " &middot; p" << fmtNum(numAt(man, "sim.cpus")) << " &middot; "
       << fmtNum(numAt(man, "sim.ops")) << " ops &middot; seed "
       << fmtNum(numAt(man, "sim.seed")) << "</p>\n";
    sectionBanner(os, man);
    sectionConfig(os, man);
    sectionCounters(os, b.stats);
    sectionTimeline(os, b.stats);
    sectionHistograms(os, b.stats);
    sectionLocks(os, b.stats);
    sectionInterconnect(os, b.stats);
    sectionArtifacts(os, b);
    closePage(os, "");
    return os.str();
}

std::string
renderDiffHtml(const DiffReport &rep, const DiffOptions &opt)
{
    std::ostringstream os;
    openPage(os, "TLR diff — " + opt.oldName + " vs " + opt.newName);
    os << "<h1>TLR run comparison</h1>\n<p class=\"sub\">old: "
       << htmlEsc(opt.oldName) << " &middot; new: "
       << htmlEsc(opt.newName) << " &middot; threshold "
       << fmtNum(opt.thresholdPct) << "%</p>\n";

    if (!rep.ok()) {
        // The refusal text renderDiff prints, boxed.
        os << "<div class=\"banner bad\">"
           << htmlEsc(renderDiff(rep, opt)) << "</div>\n";
        closePage(os, "");
        return os.str();
    }

    size_t changed = 0;
    for (const DiffRow &r : rep.rows)
        if (r.relPct != 0)
            ++changed;
    os << "<div class=\"banner " << (rep.exceeded ? "bad" : "ok") << "\">"
       << rep.rows.size() << " keys compared &middot; " << changed
       << " changed &middot; " << rep.exceeded
       << " exceed the threshold</div>\n";

    if (changed) {
        os << "<table>\n<tr><th class=\"k\">key</th><th>old</th>"
           << "<th>new</th><th>delta</th><th></th></tr>\n";
        for (const DiffRow &r : rep.rows) {
            if (r.relPct == 0)
                continue;
            std::string delta =
                std::isinf(r.relPct)
                    ? std::string("inf")
                    : strfmt("%+.1f%%", r.relPct);
            os << "<tr><td class=\"k\">" << htmlEsc(r.key) << "</td><td>"
               << fmtNum(r.oldVal) << "</td><td>" << fmtNum(r.newVal)
               << "</td><td>" << delta << "</td><td class=\"k\">"
               << (r.exceeded ? "EXCEEDS" : "")
               << "</td></tr>\n";
        }
        os << "</table>\n";
    } else {
        os << "<p class=\"muted\">no numeric changes</p>\n";
    }
    for (const std::string &n : rep.timelineNotes)
        os << "<p class=\"chain\">" << htmlEsc(n) << "</p>\n";
    if (!rep.onlyOld.empty() || !rep.onlyNew.empty()) {
        os << "<h2>Structural changes</h2>\n<ul>\n";
        for (const std::string &k : rep.onlyOld)
            os << "<li>only in old: <span class=\"k\">" << htmlEsc(k)
               << "</span></li>\n";
        for (const std::string &k : rep.onlyNew)
            os << "<li>only in new: <span class=\"k\">" << htmlEsc(k)
               << "</span></li>\n";
        os << "</ul>\n";
    }
    closePage(os, "");
    return os.str();
}

TrendReport
analyzeTrend(const std::vector<LoadedBundle> &runs, double thresholdPct)
{
    TrendReport t;
    if (runs.empty()) {
        t.error = "empty ledger: no run bundles found";
        return t;
    }
    for (const LoadedBundle &b : runs)
        t.runNames.push_back(b.name);

    // One stats schema across the whole ledger or nothing: mixing
    // schemas silently mis-pairs keys exactly like a two-way diff.
    long schema0 = -2;
    for (size_t i = 0; i < runs.size(); ++i) {
        const JsonValue *s = runs[i].stats.find("schema_version");
        long v = s && s->isNumber() ? static_cast<long>(s->number) : -1;
        if (i == 0) {
            schema0 = v;
        } else if (v != schema0) {
            t.schemaMismatch = true;
            t.error = strfmt(
                "stats schema_version differs across the ledger: "
                "%s has %ld, %s has %ld (refusing to trend across "
                "schema versions)",
                runs[0].name.c_str(), schema0, runs[i].name.c_str(), v);
            return t;
        }
    }

    std::vector<std::map<std::string, double>> flat(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
        std::vector<std::pair<std::string, double>> pairs;
        flattenNumbers(runs[i].stats, pairs);
        flat[i] = std::map<std::string, double>(pairs.begin(),
                                                pairs.end());
    }

    const std::string epochPre = "timeline.epochs[";
    for (const auto &[key, base] : flat[0]) {
        // Per-epoch rows regress *within* a run; --diff localizes
        // those. Trend tracks whole-run metrics only.
        if (key.compare(0, epochPre.size(), epochPre) == 0)
            continue;
        TrendRow row;
        row.key = key;
        row.baseline = base;
        bool everywhere = true;
        bool changed = false;
        for (size_t i = 0; i < runs.size(); ++i) {
            auto it = flat[i].find(key);
            if (it == flat[i].end()) {
                everywhere = false;
                break;
            }
            double v = it->second;
            row.series.push_back(v);
            if (v != base)
                changed = true;
            double rel;
            if (v == base)
                rel = 0;
            else if (base == 0)
                rel = std::numeric_limits<double>::infinity();
            else
                rel = 100.0 * (v - base) / std::abs(base);
            if (i + 1 == runs.size()) {
                row.final_ = v;
                row.finalRelPct = rel;
            }
            if (row.firstRegressRun < 0 &&
                std::abs(rel) > thresholdPct) {
                row.firstRegressRun = static_cast<int>(i);
                row.firstVal = v;
                row.firstRelPct = rel;
            }
        }
        if (!everywhere)
            continue;
        ++t.compared;
        if (!changed)
            continue;
        if (row.firstRegressRun >= 0)
            ++t.regressed;
        t.rows.push_back(std::move(row));
    }
    // Regressions first (by first offending run, then key), then the
    // sub-threshold drift alphabetically.
    std::sort(t.rows.begin(), t.rows.end(),
              [](const TrendRow &a, const TrendRow &b) {
                  bool ra = a.firstRegressRun >= 0;
                  bool rb = b.firstRegressRun >= 0;
                  if (ra != rb)
                      return ra;
                  if (ra && a.firstRegressRun != b.firstRegressRun)
                      return a.firstRegressRun < b.firstRegressRun;
                  return a.key < b.key;
              });
    return t;
}

std::string
renderTrendHtml(const TrendReport &t, double thresholdPct)
{
    std::ostringstream os;
    openPage(os, "TLR trend");
    os << "<h1>TLR cross-run trend</h1>\n<p class=\"sub\">"
       << t.runNames.size() << " runs &middot; threshold "
       << fmtNum(thresholdPct) << "% vs the first run</p>\n";
    if (!t.ok()) {
        os << "<div class=\"banner bad\">" << htmlEsc(t.error)
           << "</div>\n";
        closePage(os, "");
        return os.str();
    }
    os << "<h2>Runs</h2>\n<ol>\n";
    for (const std::string &n : t.runNames)
        os << "<li class=\"k\">" << htmlEsc(n) << "</li>\n";
    os << "</ol>\n";
    os << "<div class=\"banner " << (t.regressed ? "bad" : "ok") << "\">"
       << t.compared << " metrics compared &middot; " << t.rows.size()
       << " changed &middot; " << t.regressed
       << " regressed beyond the threshold</div>\n";

    if (t.rows.empty()) {
        os << "<p class=\"muted\">every metric is identical across the "
              "ledger</p>\n";
        closePage(os, " &middot; trend");
        return os.str();
    }
    os << "<h2>Metric trajectories</h2>\n"
       << "<table>\n<tr><th class=\"k\">metric</th><th>trajectory</th>"
       << "<th>baseline</th><th>final</th><th>final delta</th>"
       << "<th class=\"k\">first regressing run</th></tr>\n";
    for (const TrendRow &r : t.rows) {
        // Sparkline over the per-run series, shifted to start at the
        // series minimum so small drifts stay visible. Values are
        // doubles; quantize deterministically to integers.
        double lo = r.series.empty() ? 0 : r.series[0];
        for (double v : r.series)
            lo = std::min(lo, v);
        std::vector<U64> shifted;
        for (double v : r.series)
            shifted.push_back(static_cast<U64>(v - lo));
        std::vector<std::pair<size_t, std::string>> markers;
        if (r.firstRegressRun >= 0)
            markers.emplace_back(static_cast<size_t>(r.firstRegressRun),
                                 "restart-storm");
        std::string finalDelta =
            std::isinf(r.finalRelPct)
                ? std::string("inf")
                : strfmt("%+.1f%%", r.finalRelPct);
        os << "<tr><td class=\"k\">" << htmlEsc(r.key) << "</td><td>"
           << svgSparkline(shifted, markers, 160, 28) << "</td><td>"
           << fmtNum(r.baseline) << "</td><td>" << fmtNum(r.final_)
           << "</td><td>" << finalDelta << "</td><td class=\"k\">";
        if (r.firstRegressRun >= 0) {
            std::string firstDelta =
                std::isinf(r.firstRelPct)
                    ? std::string("inf")
                    : strfmt("%+.1f%%", r.firstRelPct);
            os << htmlEsc(t.runNames[static_cast<size_t>(
                      r.firstRegressRun)])
               << " (" << fmtNum(r.baseline) << " &rarr; "
               << fmtNum(r.firstVal) << ", " << firstDelta << ")";
        } else {
            os << "&mdash;";
        }
        os << "</td></tr>\n";
    }
    os << "</table>\n";
    closePage(os, " &middot; trend");
    return os.str();
}

std::string
trendSummaryText(const TrendReport &t, double thresholdPct)
{
    std::string out;
    if (!t.ok()) {
        out += "error: " + t.error + "\n";
        return out;
    }
    const size_t kMaxLines = 32;
    size_t printed = 0;
    for (const TrendRow &r : t.rows) {
        if (r.firstRegressRun < 0)
            continue;
        if (printed == kMaxLines) {
            out += strfmt("trend: ... and %zu more regressed metric(s)\n",
                          t.regressed - printed);
            break;
        }
        std::string delta = std::isinf(r.firstRelPct)
                                ? std::string("inf")
                                : strfmt("%+.1f%%", r.firstRelPct);
        out += strfmt("trend: %s first regresses at run %s (%s -> %s, "
                      "%s)\n",
                      r.key.c_str(),
                      t.runNames[static_cast<size_t>(r.firstRegressRun)]
                          .c_str(),
                      fmtNum(r.baseline).c_str(),
                      fmtNum(r.firstVal).c_str(), delta.c_str());
        ++printed;
    }
    out += strfmt("trend: %zu runs, %zu metrics compared, %zu changed, "
                  "%zu regressed (threshold %.1f%%)\n",
                  t.runNames.size(), t.compared, t.rows.size(),
                  t.regressed, thresholdPct);
    return out;
}

} // namespace tlr
