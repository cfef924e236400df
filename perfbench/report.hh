/**
 * @file
 * Metric names, units and the result a workload pass returns, plus
 * the process-level probes (CPU time, peak RSS) and provenance every
 * result carries.
 *
 * Every workload reports every metric of the table it is asked for,
 * so the result of each run has the same keys. A per-layer metric of
 * a layer a workload never calls reads 0 (for example the dist.*
 * metrics on the serving workloads); README.md lists which workload
 * each metric is meant to move.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench {

/** A metric's name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics of the untraced run (BENCHMARK.json end_to_end). */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of the traced run (BENCHMARK.json per_layer). */
const std::vector<MetricDef> &perLayerMetrics();

/** One measured value with the evidence behind it. */
struct Value
{
    double value = 0.0;
    std::size_t n = 0; ///< samples behind the value (0 = not a sample)
    double pct = 0.0;  ///< percentile used (0 = not a percentile)
};

/** What one pass (untraced or traced) of a workload produced. */
struct PassResult
{
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
    /** Output-check violations (first few kept verbatim). */
    std::vector<std::string> violations;
    std::uint64_t violationCount = 0;
    std::map<std::string, Value> metrics;
    /** The workload's headline number, for trace.overhead_pct. */
    double primary = 0.0;
    bool primaryHigherIsBetter = true;

    bool correct() const { return violationCount == 0; }

    /** Record a check failure. */
    void violation(const std::string &what);

    void set(const std::string &name, double v) { metrics[name] = {v}; }
    void set(const std::string &name, const Quantile &q)
    {
        metrics[name] = {q.value, q.n, q.pct};
    }
    void setMedian(const std::string &name, const std::vector<double> &v)
    {
        metrics[name] = {median(v), v.size(), 50.0};
    }
};

/** Process CPU time split (getrusage, whole process). */
struct CpuTimes
{
    double userS = 0.0;
    double sysS = 0.0;
    double total() const { return userS + sysS; }
};

CpuTimes cpuNow();

/** Peak resident set size of the process so far, in MB. */
double peakRssMb();

/**
 * Busy CPU time of the whole machine so far, summed over CPUs, in
 * seconds (/proc/stat: user, nice, system, irq, softirq, and steal,
 * the time the hypervisor gave this machine's CPUs to other guests);
 * 0 where the kernel does not report it. Less this process's own CPU
 * time over the same interval, it is the CPU that other work took
 * beside the benchmark: other processes on the machine and other
 * guests of the host.
 */
double hostBusySeconds();

/**
 * Indices, in ascending order, of the quietest half (rounded up, and
 * at least 3 when there are that many) of a run's slices, windows or
 * groups, ranked by the CPU time other work took beside the
 * benchmark in each (see hostBusySeconds()); ties keep their order.
 * When every one saw the same, all are kept. On a shared host, CPU
 * taken by other processes or guests slows every layer at once, and
 * tail latency most of all. Results are pooled over these slices so
 * that a burst of it moves them less; half, not fewer, because the
 * speed of an otherwise quiet machine also wanders from second to
 * second, and only more samples average that out.
 */
std::vector<std::size_t> quietest(const std::vector<double> &foreign);

/**
 * The untraced pass must measure the program as shipped. Returns the
 * first variable of @p env (a null-terminated environ-style array)
 * that would switch on program tracing, metrics export, telemetry,
 * fault injection or a kernel ISA override: FA3C_TRACE*,
 * FA3C_METRICS_*, FA3C_FAULT_*, FA3C_TELEMETRY_PORT,
 * FA3C_KERNELS_ISA. Empty when none is set.
 */
std::string refusedVariable(char *const *env);

/** Host, ISA and thread provenance as a JSON object. */
std::string provenanceJson(const std::string &workload,
                           std::uint64_t seed, double seconds,
                           bool trace);

/**
 * The detail line: every metric with its sample count and the
 * percentile used, plus ops and violations, as a JSON object.
 */
std::string detailJson(const std::string &pass, const PassResult &r);

/**
 * The result line the benchmark contract asks for:
 * {"correct","attempted","failed","metrics"} with exactly the
 * metrics of @p defs (missing ones read 0).
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::map<std::string, Value> &metrics,
                       const std::vector<MetricDef> &defs);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
