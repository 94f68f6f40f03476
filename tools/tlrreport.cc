/**
 * @file
 * tlrreport — render run-ledger bundles as flight reports.
 *
 * Three modes over the src/report subsystem:
 *
 *   tlrreport BUNDLE_DIR              one run -> self-contained HTML
 *   tlrreport --diff A B              two runs -> comparison page
 *   tlrreport --trend LEDGER_DIR      whole ledger -> trajectory page
 *
 * The HTML goes to --out (default stdout); the human-readable digest
 * always goes to stderr so piping the page never mixes streams.
 * --diff takes two bundle directories or two --stats-json files;
 * --json writes the versioned diff document instead of HTML. --trend
 * diffs every run against the first, so it refuses what a diff
 * refuses. Exit codes: 0 clean, 1 usage/IO/parse error, 2
 * schema_version or timeline epoch-length refusal, 3 threshold
 * exceeded (diff) or at least one regressed metric (trend).
 *
 * Byte-determinism contract: for the same simulation config and seed,
 * the emitted HTML is identical on any host — enforced by ctest
 * fixtures and the CI golden-report compare.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "cli.hh"
#include "metrics/statdiff.hh"
#include "report/bundle.hh"
#include "report/report.hh"
#include "sim/build_info.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "tlrreport — flight reports from tlrsim run bundles\n"
        "\n"
        "  tlrreport BUNDLE_DIR [options]      single-run flight report\n"
        "  tlrreport --diff A B [options]      compare two runs (bundle\n"
        "                                      dirs or stats-json files)\n"
        "  tlrreport --trend LEDGER [options]  cross-run trajectory with\n"
        "                                      first-regressing-run per\n"
        "                                      metric\n"
        "\n"
        "  --out=FILE          write the HTML here (default '-', stdout)\n"
        "  --threshold=PCT[%%]  regression threshold for --diff/--trend\n"
        "                      (default 20)\n"
        "  --json              --diff: write the versioned diff document\n"
        "                      instead of HTML\n"
        "  --version           print build and schema versions\n"
        "\n"
        "exit codes: 0 clean; 1 usage/IO error; 2 schema refusal;\n"
        "            3 diff threshold exceeded / trend regression\n");
}

bool
isDirectory(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/** Write the page to @p outPath through the shared text writer.
 *  @return 0, or 1 after printing why it failed. */
int
writePage(const std::string &outPath, const std::string &page)
{
    std::string err = tlr::cli::writeText(outPath, page);
    if (err.empty())
        return 0;
    std::fprintf(stderr, "tlrreport: %s\n", err.c_str());
    return 1;
}

/** A --diff operand is either a bundle directory or a bare stats-json
 *  file; load whichever it is into a stats document. */
bool
loadDiffOperand(const std::string &path, tlr::JsonValue &doc,
                std::string &name)
{
    if (isDirectory(path)) {
        tlr::LoadedBundle b;
        std::string err;
        if (!tlr::loadBundle(path, b, err)) {
            std::fprintf(stderr, "tlrreport: %s\n", err.c_str());
            return false;
        }
        doc = std::move(b.stats);
        name = b.name;
        return true;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "tlrreport: cannot read '%s'\n",
                     path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!tlr::parseJson(ss.str(), doc, err)) {
        std::fprintf(stderr, "tlrreport: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    name = path;
    return true;
}

int
runReport(const std::string &dir, const std::string &outPath)
{
    tlr::LoadedBundle b;
    std::string err;
    if (!tlr::loadBundle(dir, b, err)) {
        std::fprintf(stderr, "tlrreport: %s\n", err.c_str());
        // A present-but-foreign bundle schema is a refusal, not an
        // IO error; everything else in loadBundle is.
        return err.find("schema_version") != std::string::npos ? 2 : 1;
    }
    int rc = writePage(outPath, tlr::renderFlightReport(b));
    if (rc == 0)
        std::fprintf(stderr, "report: rendered bundle %s\n",
                     b.name.c_str());
    return rc;
}

int
runDiff(const std::string &oldPath, const std::string &newPath,
        const std::string &outPath, double thresholdPct, bool json)
{
    tlr::DiffOptions opt;
    opt.thresholdPct = thresholdPct;
    tlr::JsonValue oldDoc, newDoc;
    if (!loadDiffOperand(oldPath, oldDoc, opt.oldName) ||
        !loadDiffOperand(newPath, newDoc, opt.newName))
        return 1;
    tlr::DiffReport rep = tlr::diffStats(oldDoc, newDoc, opt);
    int rc = writePage(outPath, json ? tlr::renderDiffJson(rep, opt)
                                     : tlr::renderDiffHtml(rep, opt));
    if (rc != 0)
        return rc;
    std::string text = tlr::renderDiff(rep, opt);
    std::fwrite(text.data(), 1, text.size(), stderr);
    if (!rep.ok())
        return 2;
    return rep.exceeded ? 3 : 0;
}

int
runTrend(const std::string &ledgerDir, const std::string &outPath,
         double thresholdPct)
{
    if (!isDirectory(ledgerDir)) {
        std::fprintf(stderr, "tlrreport: '%s' is not a directory\n",
                     ledgerDir.c_str());
        return 1;
    }
    std::vector<tlr::LoadedBundle> runs;
    for (const std::string &dir : tlr::listLedger(ledgerDir)) {
        tlr::LoadedBundle b;
        std::string err;
        if (!tlr::loadBundle(dir, b, err)) {
            std::fprintf(stderr, "tlrreport: %s\n", err.c_str());
            return err.find("schema_version") != std::string::npos ? 2
                                                                   : 1;
        }
        runs.push_back(std::move(b));
    }
    tlr::TrendReport t = tlr::analyzeTrend(runs, thresholdPct);
    int rc = writePage(outPath, tlr::renderTrendHtml(t, thresholdPct));
    if (rc != 0)
        return rc;
    std::string text = tlr::trendSummaryText(t, thresholdPct);
    std::fwrite(text.data(), 1, text.size(), stderr);
    if (t.refused)
        return 2;
    if (!t.error.empty())
        return 1;
    return t.regressed ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "-";
    double thresholdPct = 20.0;
    bool diffMode = false, trendMode = false, json = false;
    std::vector<std::string> operands;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string val;
        if (std::strcmp(arg, "--help") == 0) {
            usage();
            return 0;
        } else if (std::strcmp(arg, "--version") == 0) {
            std::fputs(tlr::versionString("tlrreport").c_str(), stdout);
            return 0;
        } else if (std::strcmp(arg, "--diff") == 0) {
            diffMode = true;
        } else if (std::strcmp(arg, "--trend") == 0) {
            trendMode = true;
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else if (tlr::cli::parseFlag(arg, "--out", val)) {
            outPath = val;
        } else if (tlr::cli::parseFlag(arg, "--threshold", val)) {
            // PCT or PCT%: a finite, non-negative percentage.
            if (!val.empty() && val.back() == '%')
                val.pop_back();
            try {
                thresholdPct =
                    tlr::cli::parseNumber<double>("threshold", val, 0.0);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "tlrreport: %s\n", e.what());
                return 1;
            }
        } else if (arg[0] == '-' && arg[1] == '-') {
            std::fprintf(stderr, "tlrreport: unknown option '%s'\n\n",
                         arg);
            usage();
            return 1;
        } else {
            operands.push_back(arg);
        }
    }

    if (diffMode && trendMode) {
        std::fprintf(stderr,
                     "tlrreport: --diff and --trend are exclusive\n");
        return 1;
    }
    if (!diffMode && json) {
        std::fprintf(stderr, "tlrreport: --json needs --diff\n");
        return 1;
    }
    if (diffMode) {
        if (operands.size() != 2) {
            std::fprintf(stderr,
                         "tlrreport: --diff needs exactly two runs\n\n");
            usage();
            return 1;
        }
        return runDiff(operands[0], operands[1], outPath, thresholdPct,
                       json);
    }
    if (trendMode) {
        if (operands.size() != 1) {
            std::fprintf(
                stderr,
                "tlrreport: --trend needs one ledger directory\n\n");
            usage();
            return 1;
        }
        return runTrend(operands[0], outPath, thresholdPct);
    }
    if (operands.size() != 1) {
        usage();
        return 1;
    }
    return runReport(operands[0], outPath);
}
