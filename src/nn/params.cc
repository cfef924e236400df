#include "nn/params.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace fa3c::nn {

ParamSet::ParamSet(const Layout &layout)
{
    std::size_t offset = 0;
    segments_.reserve(layout.size());
    for (const auto &[name, count] : layout) {
        FA3C_ASSERT(count > 0, "empty parameter segment ", name);
        segments_.push_back(Segment{name, offset, count});
        offset += count;
    }
    data_.assign(offset, 0.0f);
}

const ParamSet::Segment &
ParamSet::findSegment(const std::string &name) const
{
    for (const auto &seg : segments_)
        if (seg.name == name)
            return seg;
    FA3C_PANIC("unknown parameter segment '", name, "'");
}

std::span<float>
ParamSet::view(const std::string &name)
{
    const Segment &seg = findSegment(name);
    return std::span<float>(data_).subspan(seg.offset, seg.count);
}

std::span<const float>
ParamSet::view(const std::string &name) const
{
    const Segment &seg = findSegment(name);
    return std::span<const float>(data_).subspan(seg.offset, seg.count);
}

bool
ParamSet::sameLayout(const ParamSet &other) const
{
    if (segments_.size() != other.segments_.size())
        return false;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        if (segments_[i].name != other.segments_[i].name ||
            segments_[i].count != other.segments_[i].count)
            return false;
    }
    return true;
}

bool
ParamSet::sameLayout(const Layout &layout) const
{
    return std::equal(segments_.begin(), segments_.end(), layout.begin(),
                      layout.end(), [](const Segment &s, const auto &l) {
                          return s.name == l.first && s.count == l.second;
                      });
}

void
ParamSet::zero()
{
    std::fill(data_.begin(), data_.end(), 0.0f);
}

void
ParamSet::copyFrom(const ParamSet &other)
{
    FA3C_ASSERT(sameLayout(other), "copyFrom layout mismatch");
    data_ = other.data_;
}

void
ParamSet::axpy(float scale, const ParamSet &other)
{
    FA3C_ASSERT(sameLayout(other), "axpy layout mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += scale * other.data_[i];
}

float
ParamSet::maxAbsDiff(const ParamSet &a, const ParamSet &b)
{
    FA3C_ASSERT(a.sameLayout(b), "maxAbsDiff layout mismatch");
    float m = 0.0f;
    for (std::size_t i = 0; i < a.data_.size(); ++i)
        m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
    return m;
}

} // namespace fa3c::nn
