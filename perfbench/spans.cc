#include "spans.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "obs/json.hh"

namespace perfbench {

void
SpanLog::add(const Span &s)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::writeChromeJson(const std::string &path,
                         const std::string &metadata_json) const
{
    const std::vector<Span> all = spans();
    std::int64_t origin = 0;
    if (!all.empty())
        origin = std::min_element(all.begin(), all.end(),
                                  [](const Span &a, const Span &b) {
                                      return a.t0Ns < b.t0Ns;
                                  })
                     ->t0Ns;

    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    std::ofstream os(path);
    if (!os)
        return false;
    fa3c::obs::JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const Span &s : all) {
        w.beginObject();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("pid", 1);
        w.field("tid", s.track);
        w.field("ts", static_cast<double>(s.t0Ns - origin) / 1e3);
        w.field("dur", static_cast<double>(s.t1Ns - s.t0Ns) / 1e3);
        w.key("args");
        w.beginObject();
        w.field("id", static_cast<std::uint64_t>(s.id));
        w.field("parent", static_cast<std::uint64_t>(s.parent));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    os << ",\"metadata\":" << metadata_json;
    w.endObject();
    os << '\n';
    return static_cast<bool>(os);
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;

    // Children's intervals clipped to their parent, grouped by parent.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        covered(spans.size());
    for (const Span &c : spans) {
        if (c.parent == 0)
            continue;
        const auto it = index.find(c.parent);
        if (it == index.end())
            continue;
        const Span &p = spans[it->second];
        const std::int64_t a = std::max(c.t0Ns, p.t0Ns);
        const std::int64_t b = std::min(c.t1Ns, p.t1Ns);
        if (b > a)
            covered[it->second].emplace_back(a, b);
    }

    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = covered[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t union_ns = 0;
        std::int64_t cur_a = 0;
        std::int64_t cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                union_ns += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            union_ns += cur_b - cur_a;
        self[i] = (spans[i].t1Ns - spans[i].t0Ns) - union_ns;
    }
    return self;
}

} // namespace perfbench
