#include "tracing.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace tlrbench
{

int
SpanLog::open(const char *name, int parent, int sim)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.sim = sim;
    s.startNs = nowNs();
    std::lock_guard<std::mutex> g(mu_);
    s.pass = pass_;
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::close(int id)
{
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> g(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = t;
}

void
SpanLog::aggregate(const char *name, int parent, int sim, std::uint64_t ns,
                   std::uint64_t calls)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.sim = sim;
    s.endNs = static_cast<std::int64_t>(ns);
    s.calls = calls;
    s.aggregate = true;
    std::lock_guard<std::mutex> g(mu_);
    s.pass = pass_;
    spans_.push_back(s);
}

std::vector<double>
SpanLog::selfSeconds() const
{
    const std::size_t n = spans_.size();
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(n);
    std::vector<std::int64_t> aggNs(n, 0);
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        auto p = static_cast<std::size_t>(s.parent);
        if (s.aggregate)
            aggNs[p] += s.endNs;
        else
            kids[p].emplace_back(s.startNs, s.endNs);
    }
    std::vector<double> self(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        std::int64_t dur = s.endNs - s.startNs;
        // Sweep tasks overlap one another, so covered time is the union
        // of the child intervals, not their sum.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = aggNs[i];
        std::int64_t reach = INT64_MIN;
        for (const auto &[a, b] : iv) {
            std::int64_t from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        self[i] = static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"time_unit\": \"ns\", \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"pass\": %d, "
                     "\"sim\": %d, \"parent\": %d, ",
                     i, s.name, s.pass, s.sim, s.parent);
        if (s.aggregate)
            std::fprintf(f, "\"total\": %lld, \"calls\": %llu}",
                         static_cast<long long>(s.endNs),
                         static_cast<unsigned long long>(s.calls));
        else
            std::fprintf(f, "\"start\": %lld, \"end\": %lld}",
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs));
        std::fprintf(f, "%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace tlrbench
