/**
 * @file
 * fa3c_perfbench: the repository benchmark.
 *
 *   fa3c_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--span-dir <dir>]
 *
 * --trace 0 runs the untraced pass and prints the end-to-end metrics.
 * --trace 1 runs the untraced pass and then the traced pass (each for
 * half of --seconds), prints
 * the per-layer metrics (with trace.overhead_pct, the traced pass's
 * cost on the workload's headline number) and writes the traced
 * pass's spans to <span-dir>/<workload>-seed<n>.json.
 *
 * stdout carries a provenance line, one detail line per pass (every
 * metric with its sample count and percentile) and, last, the result
 * line {"correct","attempted","failed","metrics"}. The exit code is 0
 * when every output check passed, 1 when one failed, 2 on bad usage.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "report.hh"
#include "sim/logging.hh"
#include "workloads.hh"

extern char **environ;

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "fa3c_perfbench: %s\n"
                 "usage: fa3c_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--span-dir <dir>]\n",
                 why);
    return 2;
}

/** Fail the pass on any metric that is not a finite number. */
void
checkFinite(PassResult &r)
{
    for (const auto &[name, v] : r.metrics)
        if (!std::isfinite(v.value))
            r.violation("metric " + name + " is not finite");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string span_dir = "perfbench-spans";
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a(argv[i]);
        if (i + 1 >= argc)
            return usage("missing value after an option");
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, &end, 10);
            have_seed = end && *end == '\0' && *v != '\0';
        } else if (a == "--seconds") {
            seconds = std::strtod(v, &end);
            if (!end || *end != '\0')
                seconds = 0.0;
        } else if (a == "--trace") {
            trace = std::strcmp(v, "0") == 0 ? 0
                    : std::strcmp(v, "1") == 0 ? 1
                                               : -1;
        } else if (a == "--span-dir") {
            span_dir = v;
        } else {
            return usage("unknown option");
        }
    }
    bool known = false;
    for (const auto &n : workloadNames())
        known = known || n == workload;
    if (!known)
        return usage("unknown or missing --workload");
    if (!have_seed)
        return usage("missing or malformed --seed");
    if (!(seconds > 0.0 && seconds <= 600.0))
        return usage("--seconds must be in (0, 600]");
    if (trace < 0)
        return usage("--trace must be 0 or 1");
    if (const std::string var = refusedVariable(environ); !var.empty()) {
        std::fprintf(stderr,
                     "fa3c_perfbench: refusing to run the untraced pass "
                     "with %s set (it changes what is measured)\n",
                     var.c_str());
        return 2;
    }
    fa3c::sim::setLogLevel(fa3c::sim::LogLevel::Warn);

    const std::string provenance =
        provenanceJson(workload, seed, seconds, trace == 1);
    std::printf("%s\n", provenance.c_str());
    std::fflush(stdout);

    // A traced run splits its time between the untraced and the
    // traced pass, so every run measures for the same wall time.
    PassConfig cfg;
    cfg.seed = seed;
    cfg.seconds = trace == 1 ? seconds / 2.0 : seconds;
    PassResult untraced = runWorkload(workload, cfg);
    checkFinite(untraced);
    std::printf("%s\n", detailJson("untraced", untraced).c_str());

    for (const auto &v : untraced.violations)
        std::fprintf(stderr, "fa3c_perfbench: check failed: %s\n",
                     v.c_str());

    PassResult out;
    const std::vector<MetricDef> *defs = &endToEndMetrics();
    bool correct = untraced.correct();
    if (trace == 0) {
        out = std::move(untraced);
    } else {
        SpanLog spans;
        cfg.spans = &spans;
        PassResult traced = runWorkload(workload, cfg);
        const double base = untraced.primary;
        double overhead = 0.0;
        if (base > 0.0)
            overhead = 100.0 *
                       (traced.primaryHigherIsBetter
                            ? (base - traced.primary) / base
                            : (traced.primary - base) / base);
        traced.set("trace.overhead_pct", overhead);
        checkFinite(traced);
        std::printf("%s\n", detailJson("traced", traced).c_str());
        const std::string path = span_dir + "/" + workload + "-seed" +
                                 std::to_string(seed) + ".json";
        if (!spans.writeChromeJson(path, provenance))
            traced.violation("could not write the span file " + path);
        else
            std::fprintf(stderr, "fa3c_perfbench: %zu spans -> %s\n",
                         spans.size(), path.c_str());
        for (const auto &v : traced.violations)
            std::fprintf(stderr, "fa3c_perfbench: check failed: %s\n",
                         v.c_str());
        correct = correct && traced.correct();
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        out = std::move(traced);
        defs = &perLayerMetrics();
    }
    std::printf("%s\n", resultJson(correct, out.attempted, out.failed,
                                   out.metrics, *defs)
                            .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
