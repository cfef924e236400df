/**
 * @file
 * Tests of the benchmark's own code: the percentile and sample-count
 * rule, span self time, the timing decorator's transparency, the
 * environment refusal, and a short smoke run of every workload in
 * both passes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "nn/a3c_network.hh"
#include "rl/backend.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "report.hh"
#include "spans.hh"
#include "stats.hh"
#include "timing_backend.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;
namespace nn = fa3c::nn;
namespace tensor = fa3c::tensor;

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0); // 1..n
    return v;
}

TEST(Percentile, NearestRank)
{
    const std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 0), 1);
    EXPECT_EQ(percentile(v, 20), 1);
    EXPECT_EQ(percentile(v, 21), 2);
    EXPECT_EQ(percentile(v, 50), 3);
    EXPECT_EQ(percentile(v, 100), 5);
    EXPECT_EQ(median(v), 3);
    EXPECT_EQ(percentile({}, 50), 0);
    EXPECT_EQ(percentile(iota(1000), 99), 990);
}

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    EXPECT_EQ(supportedPercentile(1000, 99), 99.0);
    EXPECT_EQ(supportedPercentile(5000, 99), 99.0);
    EXPECT_EQ(supportedPercentile(999, 99), 98.9);
    EXPECT_EQ(supportedPercentile(400, 99), 97.5);
    EXPECT_EQ(supportedPercentile(20, 99), 50.0);
    EXPECT_EQ(supportedPercentile(19, 99), 50.0);
    EXPECT_EQ(supportedPercentile(0, 99), 50.0);
    // Never above what was asked for.
    EXPECT_EQ(supportedPercentile(100000, 95), 95.0);

    for (std::size_t n : {20u, 37u, 400u, 999u, 1000u, 1234u, 20000u}) {
        const std::vector<double> v = iota(n);
        const Quantile q = tail(v, 99.0);
        EXPECT_EQ(q.n, n);
        EXPECT_EQ(q.pct, supportedPercentile(n, 99.0));
        const auto beyond = static_cast<std::size_t>(
            std::count_if(v.begin(), v.end(),
                          [&](double x) { return x > q.value; }));
        EXPECT_GE(beyond, kMinTailSamples) << "n=" << n;
    }
}

TEST(Quietest, KeepsTheQuietestHalfInOrder)
{
    // 10 slices: the 5 in which other work took the least CPU,
    // returned in slice order.
    std::vector<double> foreign(10, 1.0);
    for (std::size_t i : {1u, 3u, 4u, 7u, 9u})
        foreign[i] = 0.1 * static_cast<double>(i % 5);
    EXPECT_EQ(quietest(foreign), (std::vector<std::size_t>{1, 3, 4, 7, 9}));
    // Half rounded up, never fewer than 3, never more than there are.
    EXPECT_EQ(quietest({5, 1, 4, 2, 3, 6, 7}),
              (std::vector<std::size_t>{1, 2, 3, 4}));
    EXPECT_EQ(quietest({5, 1, 4, 2}), (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_EQ(quietest({2, 1}), (std::vector<std::size_t>{0, 1}));
    // Ties keep their order.
    EXPECT_EQ(quietest({1, 0, 1, 1, 0, 1, 1, 1}),
              (std::vector<std::size_t>{0, 1, 2, 4}));
    // No spread ranks nothing: every slice is kept.
    EXPECT_EQ(quietest(std::vector<double>(8, 0.0)),
              (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime)
{
    const std::vector<Span> spans = {
        {1, 0, "parent", 0, 0, 100},
        {2, 1, "a", 0, 10, 30},
        {3, 1, "b", 0, 20, 50},   // overlaps a: covered once
        {4, 1, "c", 0, 90, 120},  // ends past the parent: clipped
        {5, 3, "grandchild", 0, 25, 35},
        {6, 99, "orphan", 0, 0, 7}, // unknown parent: a root
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_EQ(self[0], 100 - (40 + 10));
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30 - 10);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 10);
    EXPECT_EQ(self[5], 7);
}

TEST(Spans, ChromeJsonRoundTripsEverySpan)
{
    SpanLog log;
    for (int i = 0; i < 3; ++i)
        log.add({log.newId(), 0, "x", i, 1000 * i, 1000 * i + 500});
    const std::string path = ::testing::TempDir() + "perfbench_spans.json";
    ASSERT_TRUE(log.writeChromeJson(path, "{\"k\":1}"));
    FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    std::size_t events = 0;
    for (std::size_t at = text.find("\"ph\":\"X\""); at != std::string::npos;
         at = text.find("\"ph\":\"X\"", at + 1))
        ++events;
    EXPECT_EQ(events, 3u);
    EXPECT_NE(text.find("\"metadata\":{\"k\":1}"), std::string::npos);
}

/** Bitwise equality of two float ranges. */
bool
sameBits(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameActivations(const nn::A3cNetwork::Activations &a,
                const nn::A3cNetwork::Activations &b)
{
    return sameBits(a.conv1Pre.data(), b.conv1Pre.data()) &&
           sameBits(a.conv2Act.data(), b.conv2Act.data()) &&
           sameBits(a.fc3Act.data(), b.fc3Act.data()) &&
           sameBits(a.out.data(), b.out.data());
}

TEST(TimingBackend, BitIdenticalToTheWrappedBackend)
{
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    nn::ParamSet params = net.makeParams();
    fa3c::sim::Rng rng(7);
    net.initParams(params, rng);
    std::vector<tensor::Tensor> obs;
    for (int i = 0; i < 3; ++i) {
        const auto &c = net.config();
        tensor::Tensor t(tensor::Shape({c.inChannels, c.inHeight, c.inWidth}));
        for (float &v : t.data())
            v = rng.uniformF();
        obs.push_back(std::move(t));
    }

    for (auto kind : {rl::BackendKind::Reference, rl::BackendKind::FastCpu}) {
        SpanLog spans;
        CallRecorder rec(&spans);
        auto plain = rl::makeDnnBackend(kind, net);
        auto timed = rec.factory(kind, net, 0, /*agent=*/true)(0);
        plain->onParamSync(params);
        timed->onParamSync(params);

        auto a1 = net.makeActivations();
        auto a2 = net.makeActivations();
        plain->forward(params, obs[0], a1);
        timed->forward(params, obs[0], a2);
        EXPECT_TRUE(sameActivations(a1, a2));

        tensor::Tensor g_out(tensor::Shape({net.outSize()}));
        for (float &v : g_out.data())
            v = rng.uniformF() - 0.5f;
        nn::ParamSet g1 = net.makeParams();
        nn::ParamSet g2 = net.makeParams();
        plain->backward(params, a1, g_out, g1);
        timed->backward(params, a2, g_out, g2);
        EXPECT_TRUE(sameBits(g1.flat(), g2.flat()));

        std::vector<nn::A3cNetwork::Activations> b1, b2;
        std::vector<const tensor::Tensor *> in;
        std::vector<nn::A3cNetwork::Activations *> p1, p2;
        for (std::size_t i = 0; i < obs.size(); ++i) {
            b1.push_back(net.makeActivations());
            b2.push_back(net.makeActivations());
        }
        for (std::size_t i = 0; i < obs.size(); ++i) {
            in.push_back(&obs[i]);
            p1.push_back(&b1[i]);
            p2.push_back(&b2[i]);
        }
        plain->forwardBatch(params, in, p1);
        timed->forwardBatch(params, in, p2);
        for (std::size_t i = 0; i < obs.size(); ++i)
            EXPECT_TRUE(sameActivations(b1[i], b2[i]));

        timed.reset(); // closes the routine span
        ASSERT_EQ(rec.logs().size(), 1u);
        const auto &calls = rec.logs().front().calls;
        ASSERT_EQ(calls.size(), 4u);
        EXPECT_EQ(calls[0].kind, CallKind::Sync);
        EXPECT_EQ(calls[1].kind, CallKind::Forward);
        EXPECT_EQ(calls[2].kind, CallKind::Backward);
        EXPECT_EQ(calls[3].kind, CallKind::ForwardBatch);
        EXPECT_EQ(calls[3].n, 3);
        for (const Call &c : calls)
            EXPECT_LE(c.t0Ns, c.t1Ns);

        // One routine span parents every call made after the sync.
        const auto all = spans.spans();
        ASSERT_EQ(all.size(), 5u);
        const Span &routine = all.back();
        EXPECT_STREQ(routine.name, "agent.routine");
        for (std::size_t i = 0; i + 1 < all.size(); ++i)
            EXPECT_EQ(all[i].parent, routine.id);
    }
}

TEST(Environment, RefusesBehaviourChangingVariables)
{
    auto refused = [](std::vector<const char *> env) {
        env.push_back(nullptr);
        return refusedVariable(const_cast<char *const *>(env.data()));
    };
    EXPECT_EQ(refused({"PATH=/bin", "FA3C_LOG_LEVEL=quiet",
                       "FA3C_KERNEL_THREADS=2"}),
              "");
    EXPECT_EQ(refused({"FA3C_TRACE=t.json"}), "FA3C_TRACE");
    EXPECT_EQ(refused({"FA3C_TRACE_SAMPLE=0.1"}), "FA3C_TRACE_SAMPLE");
    EXPECT_EQ(refused({"FA3C_METRICS_JSON=m.json"}), "FA3C_METRICS_JSON");
    EXPECT_EQ(refused({"FA3C_TELEMETRY_PORT=9000"}), "FA3C_TELEMETRY_PORT");
    EXPECT_EQ(refused({"FA3C_FAULT_KILL_AGENT=1"}), "FA3C_FAULT_KILL_AGENT");
    EXPECT_EQ(refused({"FA3C_KERNELS_ISA=generic"}), "FA3C_KERNELS_ISA");
}

TEST(Report, ResultLineHasExactlyTheListedMetrics)
{
    std::map<std::string, Value> m;
    m["setup_s"] = {0.5};
    m["not_listed"] = {1.0};
    const std::string line =
        resultJson(true, 10, 0, m, endToEndMetrics());
    EXPECT_EQ(line.find("not_listed"), std::string::npos);
    for (const MetricDef &d : endToEndMetrics())
        EXPECT_NE(line.find(std::string("\"") + d.name + "\""),
                  std::string::npos);
    EXPECT_EQ(line.rfind("{\"correct\":true,\"attempted\":10,\"failed\":0,", 0),
              0u);
}

/** Short untraced and traced passes of every workload: the run
 * completes, every output check passes, and every metric of the
 * pass's table is produced. */
class WorkloadSmoke : public ::testing::TestWithParam<std::string>
{
  protected:
    static void
    SetUpTestSuite()
    {
        fa3c::sim::setLogLevel(fa3c::sim::LogLevel::Warn);
    }
};

TEST_P(WorkloadSmoke, BothPassesRunClean)
{
    PassConfig cfg;
    cfg.seed = 5;
    cfg.seconds = 0.5;
    const PassResult untraced = runWorkload(GetParam(), cfg);
    for (const auto &v : untraced.violations)
        ADD_FAILURE() << v;
    EXPECT_TRUE(untraced.correct());
    EXPECT_GT(untraced.succeeded, 0u);
    EXPECT_EQ(untraced.failed, 0u);
    for (const MetricDef &d : endToEndMetrics()) {
        const auto it = untraced.metrics.find(d.name);
        ASSERT_NE(it, untraced.metrics.end()) << d.name;
        EXPECT_GT(it->second.value, 0.0) << d.name;
    }

    SpanLog spans;
    cfg.spans = &spans;
    const PassResult traced = runWorkload(GetParam(), cfg);
    for (const auto &v : traced.violations)
        ADD_FAILURE() << v;
    EXPECT_TRUE(traced.correct());
    EXPECT_GT(spans.size(), 0u);
    const bool serving = GetParam().rfind("serve", 0) == 0;
    const char *layer = serving ? "backend.fw_batch_us_p50"
                                : "agent.routine_ms_p50";
    ASSERT_TRUE(traced.metrics.count(layer)) << layer;
    EXPECT_GT(traced.metrics.at(layer).value, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSmoke,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

} // namespace
