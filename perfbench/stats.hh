/**
 * @file
 * Sample statistics for the benchmark: nearest-rank percentiles, the
 * sample-count rule for tail percentiles, and medians over repeated
 * measurements.
 *
 * A tail percentile is only reported where the sample supports it:
 * at least kMinTailSamples samples must lie beyond it. A metric that
 * asks for p99 of a 400-sample set therefore gets the highest
 * percentile the set supports (p97.5), and the report states both
 * the percentile used and the sample count.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr std::size_t kMinTailSamples = 10;

/**
 * Nearest-rank percentile @p p (0..100) of @p v: the smallest sample
 * with at least p% of the samples at or below it. 0 when empty.
 */
double percentile(std::vector<double> v, double p);

/** percentile(v, 50). */
double median(std::vector<double> v);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &v);

/**
 * The highest percentile <= @p wanted that leaves at least
 * kMinTailSamples of @p n samples strictly beyond it:
 * n * (1 - p/100) >= kMinTailSamples. Never below 50 (the median is
 * always reported); 50 when n < 2 * kMinTailSamples.
 */
double supportedPercentile(std::size_t n, double wanted);

/** A percentile together with the evidence behind it. */
struct Quantile
{
    double value = 0.0; ///< sample value at `pct`
    double pct = 0.0;   ///< percentile actually used
    std::size_t n = 0;  ///< sample count
};

/** percentile(v, supportedPercentile(v.size(), wanted)) with its
 * percentile and sample count. */
Quantile tail(const std::vector<double> &v, double wanted);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
