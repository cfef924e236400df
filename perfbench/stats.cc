#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
supportedPercentile(std::size_t n, double wanted)
{
    // Largest p with n * (1 - p/100) >= kMinTailSamples, rounded down
    // to a tenth of a percent so the label stays readable.
    if (n < 2 * kMinTailSamples)
        return 50.0;
    const double limit =
        100.0 * (1.0 - static_cast<double>(kMinTailSamples) /
                           static_cast<double>(n));
    // The epsilon absorbs binary rounding of exact limits (n = 1000
    // gives 98.999...; it must still read 99).
    const double p =
        std::floor(std::min(wanted, limit) * 10.0 + 1e-6) / 10.0;
    return std::max(50.0, p);
}

Quantile
tail(const std::vector<double> &v, double wanted)
{
    Quantile q;
    q.n = v.size();
    q.pct = supportedPercentile(v.size(), wanted);
    q.value = percentile(v, q.pct);
    return q;
}

} // namespace perfbench
