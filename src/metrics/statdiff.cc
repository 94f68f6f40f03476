#include "metrics/statdiff.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>

#include "sim/build_info.hh"
#include "sim/logging.hh"

namespace tlr
{

namespace
{

void
flattenInto(const JsonValue &v, const std::string &prefix, bool top,
            std::vector<std::pair<std::string, double>> &out)
{
    if (v.isNumber()) {
        out.emplace_back(prefix, v.number);
        return;
    }
    if (v.isObject()) {
        for (const auto &[key, child] : v.members) {
            // Versioning and build metadata are not metrics: the
            // schema check handles the former, and comparing compiler
            // strings numerically is meaningless.
            if (top && (key == "schema_version" || key == "meta"))
                continue;
            flattenInto(child, prefix.empty() ? key : prefix + "." + key,
                        false, out);
        }
        return;
    }
    if (v.isArray()) {
        for (size_t i = 0; i < v.elements.size(); ++i)
            flattenInto(v.elements[i],
                        prefix + "[" + std::to_string(i) + "]", false,
                        out);
    }
    // Strings/bools/nulls are not comparable metrics; skip.
}

long
schemaOf(const JsonValue &doc)
{
    const JsonValue *s = doc.find("schema_version");
    return s && s->isNumber() ? static_cast<long>(s->number) : -1;
}

} // namespace

void
flattenNumbers(const JsonValue &v,
               std::vector<std::pair<std::string, double>> &out)
{
    flattenInto(v, "", true, out);
}

const JsonValue *
resolvePath(const JsonValue &v, const std::string &path)
{
    const JsonValue *cur = &v;
    size_t pos = 0;
    while (pos < path.size()) {
        size_t dot = path.find('.', pos);
        if (dot == std::string::npos)
            dot = path.size();
        cur = cur->find(path.substr(pos, dot - pos));
        if (!cur)
            return nullptr;
        pos = dot + 1;
    }
    return cur;
}

DiffReport
diffStats(const JsonValue &old_doc, const JsonValue &new_doc,
          const DiffOptions &opt)
{
    DiffReport rep;
    rep.oldSchema = schemaOf(old_doc);
    rep.newSchema = schemaOf(new_doc);
    // Two legacy (pre-versioning) dumps may still be compared; any
    // other mismatch means the key spaces are not the same schema.
    if (rep.oldSchema != rep.newSchema) {
        rep.schemaMismatch = true;
        return rep;
    }

    const JsonValue *oldRoot = resolvePath(old_doc, opt.oldPrefix);
    const JsonValue *newRoot = resolvePath(new_doc, opt.newPrefix);
    if (!oldRoot) {
        rep.error = "old document: no such path: " + opt.oldPrefix;
        return rep;
    }
    if (!newRoot) {
        rep.error = "new document: no such path: " + opt.newPrefix;
        return rep;
    }

    {
        const JsonValue *oldLen =
            resolvePath(*oldRoot, "timeline.epoch_len");
        const JsonValue *newLen =
            resolvePath(*newRoot, "timeline.epoch_len");
        if (oldLen && oldLen->isNumber())
            rep.oldEpochLen = static_cast<long>(oldLen->number);
        if (newLen && newLen->isNumber())
            rep.newEpochLen = static_cast<long>(newLen->number);
        if (rep.oldEpochLen >= 0 && rep.newEpochLen >= 0 &&
            rep.oldEpochLen != rep.newEpochLen) {
            rep.timelineEpochMismatch = true;
            return rep;
        }
    }

    std::vector<std::pair<std::string, double>> oldFlat, newFlat;
    flattenNumbers(*oldRoot, oldFlat);
    flattenNumbers(*newRoot, newFlat);
    std::map<std::string, double> oldMap(oldFlat.begin(), oldFlat.end());
    std::map<std::string, double> newMap(newFlat.begin(), newFlat.end());

    for (const auto &[key, oldVal] : oldMap) {
        auto it = newMap.find(key);
        if (it == newMap.end()) {
            rep.onlyOld.push_back(key);
            continue;
        }
        DiffRow row;
        row.key = key;
        row.oldVal = oldVal;
        row.newVal = it->second;
        if (oldVal == it->second)
            row.relPct = 0;
        else if (oldVal == 0)
            row.relPct = std::numeric_limits<double>::infinity();
        else
            row.relPct = 100.0 * (it->second - oldVal) / std::abs(oldVal);
        row.exceeded = std::abs(row.relPct) > opt.thresholdPct;
        if (row.exceeded)
            ++rep.exceeded;
        rep.rows.push_back(std::move(row));
    }
    for (const auto &[key, val] : newMap) {
        (void)val;
        if (!oldMap.count(key))
            rep.onlyNew.push_back(key);
    }

    // Localize timeline regressions: a counter drifting mid-run shows
    // up as hundreds of changed timeline.epochs[i].* rows; one line
    // naming the first diverging epoch is the useful summary.
    {
        std::map<std::string, long> firstDiverging;
        const std::string pre = "timeline.epochs[";
        for (const DiffRow &r : rep.rows) {
            if (r.oldVal == r.newVal ||
                r.key.compare(0, pre.size(), pre) != 0)
                continue;
            size_t close = r.key.find(']', pre.size());
            if (close == std::string::npos ||
                close + 1 >= r.key.size() || r.key[close + 1] != '.')
                continue;
            long epoch = std::atol(r.key.c_str() + pre.size());
            std::string field = r.key.substr(close + 2);
            auto [it, fresh] = firstDiverging.emplace(field, epoch);
            if (!fresh && epoch < it->second)
                it->second = epoch;
        }
        for (const auto &[field, epoch] : firstDiverging)
            rep.timelineNotes.push_back(
                strfmt("timeline: %s diverges starting at epoch %ld",
                       field.c_str(), epoch));
    }
    return rep;
}

std::string
renderDiff(const DiffReport &rep, const DiffOptions &opt)
{
    std::string out;
    if (rep.schemaMismatch) {
        auto schemaStr = [](long v) {
            return v < 0 ? std::string("none (legacy)")
                         : std::to_string(v);
        };
        out += strfmt("schema mismatch: %s has schema_version %s, "
                      "%s has schema_version %s "
                      "(refusing to diff across schema versions)\n",
                      opt.oldName.c_str(),
                      schemaStr(rep.oldSchema).c_str(),
                      opt.newName.c_str(),
                      schemaStr(rep.newSchema).c_str());
        return out;
    }
    if (rep.timelineEpochMismatch) {
        out += strfmt("timeline epoch mismatch: %s has epoch_len %ld, "
                      "%s has epoch_len %ld (refusing to diff "
                      "timelines with different epoch lengths)\n",
                      opt.oldName.c_str(), rep.oldEpochLen,
                      opt.newName.c_str(), rep.newEpochLen);
        return out;
    }
    if (!rep.error.empty()) {
        out += "error: " + rep.error + "\n";
        return out;
    }

    size_t changed = 0;
    out += strfmt("%-44s %14s %14s %9s\n", "key", "old", "new", "delta%");
    for (const DiffRow &r : rep.rows) {
        if (r.relPct == 0)
            continue;
        ++changed;
        const char *mark = r.exceeded ? "  <-- EXCEEDS" : "";
        if (std::isinf(r.relPct))
            out += strfmt("%-44s %14.6g %14.6g %9s%s\n", r.key.c_str(),
                          r.oldVal, r.newVal, "inf", mark);
        else
            out += strfmt("%-44s %14.6g %14.6g %+8.1f%%%s\n",
                          r.key.c_str(), r.oldVal, r.newVal, r.relPct,
                          mark);
    }
    if (changed == 0)
        out += "  (no numeric changes)\n";
    for (const std::string &n : rep.timelineNotes)
        out += n + "\n";
    for (const std::string &k : rep.onlyOld)
        out += strfmt("only in old: %s\n", k.c_str());
    for (const std::string &k : rep.onlyNew)
        out += strfmt("only in new: %s\n", k.c_str());
    out += strfmt("%zu keys compared, %zu changed, %zu exceed "
                  "threshold (%.1f%%)\n",
                  rep.rows.size(), changed, rep.exceeded,
                  opt.thresholdPct);
    return out;
}

namespace
{

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/** JSON has no Infinity literal; relPct for a 0 -> nonzero change is
 *  serialized as null (consumers treat null as "undefined ratio"). */
std::string
jsonNum(double v)
{
    if (std::isinf(v) || std::isnan(v))
        return "null";
    return strfmt("%.6g", v);
}

} // namespace

std::string
renderDiffJson(const DiffReport &rep, const DiffOptions &opt)
{
    std::string out;
    out += strfmt("{\n  \"schema_version\": %d,\n", diffJsonSchemaVersion);
    out += "  \"old\": {\"name\": " + jsonQuote(opt.oldName) +
           strfmt(", \"schema\": %ld},\n", rep.oldSchema);
    out += "  \"new\": {\"name\": " + jsonQuote(opt.newName) +
           strfmt(", \"schema\": %ld},\n", rep.newSchema);
    out += strfmt("  \"threshold_pct\": %.6g,\n", opt.thresholdPct);

    const char *refusal = rep.schemaMismatch ? "schema_mismatch"
                          : rep.timelineEpochMismatch
                              ? "timeline_epoch_mismatch"
                          : !rep.error.empty() ? "error"
                                               : nullptr;
    if (refusal) {
        out += strfmt("  \"refused\": true,\n  \"refusal\": \"%s\",\n",
                      refusal);
        if (!rep.error.empty())
            out += "  \"error\": " + jsonQuote(rep.error) + ",\n";
        if (rep.timelineEpochMismatch)
            out += strfmt("  \"old_epoch_len\": %ld, "
                          "\"new_epoch_len\": %ld,\n",
                          rep.oldEpochLen, rep.newEpochLen);
        out += "  \"rows\": [],\n  \"only_old\": [], \"only_new\": [],\n"
               "  \"timeline_notes\": [],\n"
               "  \"compared\": 0, \"changed\": 0, \"exceeded\": 0\n}\n";
        return out;
    }

    out += "  \"refused\": false,\n";
    size_t changed = 0;
    out += "  \"rows\": [\n";
    for (size_t i = 0; i < rep.rows.size(); ++i) {
        const DiffRow &r = rep.rows[i];
        if (r.relPct != 0)
            ++changed;
        out += "    {\"key\": " + jsonQuote(r.key) +
               ", \"old\": " + jsonNum(r.oldVal) +
               ", \"new\": " + jsonNum(r.newVal) +
               ", \"rel_pct\": " + jsonNum(r.relPct) +
               strfmt(", \"exceeded\": %s}%s\n",
                      r.exceeded ? "true" : "false",
                      i + 1 < rep.rows.size() ? "," : "");
    }
    out += "  ],\n";
    auto strArray = [&](const char *name,
                        const std::vector<std::string> &v) {
        out += strfmt("  \"%s\": [", name);
        for (size_t i = 0; i < v.size(); ++i)
            out += (i ? ", " : "") + jsonQuote(v[i]);
        out += "],\n";
    };
    strArray("only_old", rep.onlyOld);
    strArray("only_new", rep.onlyNew);
    strArray("timeline_notes", rep.timelineNotes);
    out += strfmt("  \"compared\": %zu, \"changed\": %zu, "
                  "\"exceeded\": %zu\n}\n",
                  rep.rows.size(), changed, rep.exceeded);
    return out;
}

} // namespace tlr
