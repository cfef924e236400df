#include "report.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <string_view>

#include "nn/kernels/dispatch.hh"
#include "nn/kernels/threadpool.hh"
#include "obs/host_info.hh"
#include "obs/json.hh"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"throughput_ips", "1/s"},
        {"steps_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"publish_p50_ms", "ms"},
        {"cpu_ms_per_op", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        // serve.event_loop + net
        {"frontend.overhead_us_p50", "us"},
        {"cpu.sys_share", "ratio"},
        // serve.router
        {"router.imbalance", "ratio"},
        // serve.scheduler
        {"scheduler.queue_us_p50", "us"},
        {"scheduler.queue_us_p99", "us"},
        {"scheduler.batch_mean", "count"},
        {"scheduler.underfilled_share", "ratio"},
        // rl.backend, serving
        {"backend.fw_batch_us_p50", "us"},
        {"backend.fw_us_per_sample", "us"},
        {"backend.busy_share", "ratio"},
        {"backend.fw_gflops", "GFLOP/s"},
        // rl.backend, training
        {"backend.fw_us_p50", "us"},
        {"backend.bw_us_p50", "us"},
        {"backend.sync_us_p50", "us"},
        // serve.registry
        {"registry.publish_ms_p50", "ms"},
        {"registry.publish_ms_p99", "ms"},
        {"backend.stage_ms_p50", "ms"},
        {"backend.stages_per_publish", "ratio"},
        {"backend.stages_after_warmup", "count"},
        // rl.agent
        {"agent.routine_ms_p50", "ms"},
        {"agent.routine_ms_p99", "ms"},
        {"agent.outside_ms_p50", "ms"},
        {"agent.routine_ms_mean", "ms"},
        {"agent.backend_ms_mean", "ms"},
        {"agent.outside_ms_mean", "ms"},
        // dist.worker / dist.ps
        {"dist.push_rtt_us_p50", "us"},
        {"dist.push_rtt_us_p99", "us"},
        {"dist.apply_us_p50", "us"},
        {"dist.accept_ratio", "ratio"},
        {"dist.staleness_mean", "count"},
        {"dist.bytes_per_step", "bytes"},
        // harness
        {"trace.overhead_pct", "%"},
    };
    return defs;
}

void
PassResult::violation(const std::string &what)
{
    ++violationCount;
    if (violations.size() < 10)
        violations.push_back(what);
}

std::string
refusedVariable(char *const *env)
{
    static const char *const kPrefixes[] = {"FA3C_TRACE", "FA3C_METRICS_",
                                            "FA3C_FAULT_"};
    static const char *const kExact[] = {"FA3C_TELEMETRY_PORT",
                                         "FA3C_KERNELS_ISA"};
    for (char *const *e = env; e && *e; ++e) {
        const std::string_view kv(*e);
        const std::string_view key = kv.substr(0, kv.find('='));
        for (const char *p : kPrefixes)
            if (key.starts_with(p))
                return std::string(key);
        for (const char *x : kExact)
            if (key == x)
                return std::string(key);
    }
    return {};
}

CpuTimes
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    CpuTimes t;
    t.userS = static_cast<double>(ru.ru_utime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    t.sysS = static_cast<double>(ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
hostBusySeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double f[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0.0;
    for (double &x : f)
        if (!(in >> x))
            return 0.0;
    // user nice system idle iowait irq softirq steal
    return (f[0] + f[1] + f[2] + f[5] + f[6] + f[7]) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<std::size_t>
quietest(const std::vector<double> &foreign)
{
    std::vector<std::size_t> idx(foreign.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    // Equal everywhere ranks nothing: keep every slice.
    if (std::adjacent_find(foreign.begin(), foreign.end(),
                           std::not_equal_to<>()) == foreign.end())
        return idx;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                         return foreign[a] < foreign[b];
                     });
    idx.resize(std::min(idx.size(),
                        std::max<std::size_t>(3, (idx.size() + 1) / 2)));
    std::sort(idx.begin(), idx.end());
    return idx;
}

std::string
provenanceJson(const std::string &workload, std::uint64_t seed,
               double seconds, bool trace)
{
    const auto &host = fa3c::obs::hostInfo();
    std::ostringstream os;
    fa3c::obs::JsonWriter w(os);
    w.beginObject();
    w.field("workload", workload);
    w.field("seed", static_cast<std::uint64_t>(seed));
    w.field("seconds", seconds);
    w.field("trace", trace);
    w.field("host", host.fingerprint);
    w.field("cpu_model", host.cpuModel);
    w.field("logical_cores", host.logicalCores);
    w.field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    w.field("kernel_isa", fa3c::nn::kernels::isaName());
    w.field("kernel_threads", fa3c::nn::kernels::kernelThreads());
    w.endObject();
    return os.str();
}

std::string
detailJson(const std::string &pass, const PassResult &r)
{
    std::ostringstream os;
    fa3c::obs::JsonWriter w(os);
    w.beginObject();
    w.field("pass", pass);
    w.field("attempted", static_cast<std::uint64_t>(r.attempted));
    w.field("succeeded", static_cast<std::uint64_t>(r.succeeded));
    w.field("failed", static_cast<std::uint64_t>(r.failed));
    w.field("violations", static_cast<std::uint64_t>(r.violationCount));
    w.key("violation_examples");
    w.beginArray();
    for (const auto &v : r.violations)
        w.value(v);
    w.endArray();
    w.key("metrics");
    w.beginObject();
    for (const auto &[name, v] : r.metrics) {
        w.key(name);
        w.beginObject();
        w.field("value", v.value);
        if (v.n > 0)
            w.field("n", static_cast<std::uint64_t>(v.n));
        if (v.pct > 0.0)
            w.field("pct", v.pct);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return os.str();
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::map<std::string, Value> &metrics,
           const std::vector<MetricDef> &defs)
{
    std::ostringstream os;
    fa3c::obs::JsonWriter w(os);
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", static_cast<std::uint64_t>(attempted));
    w.field("failed", static_cast<std::uint64_t>(failed));
    w.key("metrics");
    w.beginObject();
    for (const MetricDef &d : defs) {
        const auto it = metrics.find(d.name);
        const double v = it == metrics.end() ? 0.0 : it->second.value;
        w.key(d.name);
        w.beginObject();
        w.field("value", std::isfinite(v) ? v : 0.0);
        w.field("unit", d.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return os.str();
}

} // namespace perfbench
