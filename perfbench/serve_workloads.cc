/**
 * @file
 * serve_actors: closed-loop load over loopback TCP into an
 * EventLoopServer fronting a 2-replica ReplicaRouter.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "client.hh"
#include "nn/a3c_network.hh"
#include "nn/layers.hh"
#include "serve/event_loop.hh"
#include "serve/router.hh"
#include "sim/rng.hh"
#include "timing_backend.hh"
#include "workloads.hh"

namespace perfbench {

namespace nn = fa3c::nn;
namespace serve = fa3c::serve;
namespace sim = fa3c::sim;
namespace tensor = fa3c::tensor;

namespace {

constexpr int kActions = 4;
constexpr int kConnections = 4;
constexpr int kReplicas = 2;
constexpr int kMaxBatch = 16;
constexpr std::chrono::microseconds kLinger{2000};
/** Requests in flight per connection (64 in total). */
constexpr int kActorWindow = 16;
/** Publishes timed on the idle fleet, after untimed ones that let
 * the allocator settle. They run in groups, half of the groups
 * before the load and half after it, so that they sample the host
 * at two times; publish_p50_ms is their median over the quietest
 * groups (see quietest()). */
constexpr int kIdleWarmPublishes = 10;
constexpr int kPublishGroups = 8;
constexpr int kPublishesPerGroup = 10;
constexpr int kPoolSize = 16;
constexpr double kWarmupS = 1.0;
/** The measuring window is cut into equal slices of about this
 * length, and at least kMinSlices. */
constexpr double kSliceS = 1.0;
constexpr int kMinSlices = 4;
/** Untraced pass: the fleet is set up this many times; setup_s is
 * their median. */
constexpr int kSetups = 7;
constexpr double kDrainS = 5.0;
constexpr double kProbTolerance = 1e-3;


/** The Atari geometry with a 1024-wide FC3 (10.2 MB of parameters). */
nn::NetConfig
wideNet()
{
    nn::NetConfig c = nn::NetConfig::atari(kActions);
    c.fcSize = 1024;
    return c;
}

/** Published version v serves parameter set setOf(v). Fixing the
 * mapping up front lets a reply be checked without asking the
 * publisher which set it installed. */
int
setOf(std::uint64_t version)
{
    return version % 2 == 1 ? 0 : 1;
}

/** Everything the load is made of, generated from the seed, plus the
 * in-process reference outputs every reply is checked against. */
struct Inputs
{
    nn::ParamSet sets[2];
    std::vector<tensor::Tensor> pool;
    std::vector<std::vector<float>> refProbs[2]; ///< [set][obs]
    int probe = 0;
    int probeAction[2] = {0, 0};
};

std::vector<float>
referenceProbs(const nn::A3cNetwork &net, const nn::ParamSet &params,
               const tensor::Tensor &obs, double *margin)
{
    rl::ReferenceBackend ref(net);
    auto act = net.makeActivations();
    ref.forward(params, obs, act);
    const auto logits = net.policyLogits(act);
    std::vector<float> sorted(logits.begin(), logits.end());
    std::sort(sorted.begin(), sorted.end(), std::greater<float>());
    *margin = static_cast<double>(sorted[0]) - sorted[1];
    std::vector<float> probs(logits.size());
    nn::softmax(logits, probs);
    return probs;
}

Inputs
makeInputs(const nn::A3cNetwork &net, std::uint64_t seed)
{
    Inputs in;
    for (int s = 0; s < 2; ++s) {
        in.sets[s] = net.makeParams();
        sim::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17 + s);
        net.initParams(in.sets[s], rng);
    }
    const nn::NetConfig &nc = net.config();
    sim::Rng obs_rng(seed * 0xC2B2AE3D27D4EB4Full + 29);
    for (int i = 0; i < kPoolSize; ++i) {
        tensor::Tensor t(
            tensor::Shape({nc.inChannels, nc.inHeight, nc.inWidth}));
        for (float &v : t.data())
            v = obs_rng.uniformF();
        in.pool.push_back(std::move(t));
    }
    // The probe is the observation whose top-two logits are furthest
    // apart under both sets, so kernel rounding cannot flip its
    // argmax and an action mismatch means a wrong model or output.
    double best = -1.0;
    for (int s = 0; s < 2; ++s)
        in.refProbs[s].resize(kPoolSize);
    for (int i = 0; i < kPoolSize; ++i) {
        double worst = 1e30;
        for (int s = 0; s < 2; ++s) {
            double margin = 0.0;
            in.refProbs[s][i] =
                referenceProbs(net, in.sets[s], in.pool[i], &margin);
            worst = std::min(worst, margin);
        }
        if (worst > best) {
            best = worst;
            in.probe = i;
        }
    }
    for (int s = 0; s < 2; ++s) {
        const auto &p = in.refProbs[s][in.probe];
        in.probeAction[s] = static_cast<int>(
            std::max_element(p.begin(), p.end()) - p.begin());
    }
    return in;
}

serve::FleetConfig
fleetConfig()
{
    serve::FleetConfig f;
    f.replicas = kReplicas;
    f.policy = serve::RoutePolicy::LeastLoaded;
    f.replica.batch.maxBatch = kMaxBatch;
    f.replica.batch.linger = kLinger;
    f.replica.workers = 1;
    f.replica.backend = rl::BackendKind::FastCpu;
    return f;
}

/** A running fleet behind its epoll front-end. */
struct Fleet
{
    std::unique_ptr<serve::ReplicaRouter> router;
    std::unique_ptr<serve::EventLoopServer> server;

    ~Fleet()
    {
        if (server)
            server->stop();
        if (router)
            router->stop();
    }
};

/** Request/reply record of one request on one connection. */
struct Rec
{
    std::int64_t sendNs = 0;
    std::int64_t recvNs = 0;
    std::uint64_t version = 0;
    float queueUs = 0.0f;
    float totalUs = 0.0f;
    serve::Status status = serve::Status::RejectedClosed;
    bool answered = false;
    int obs = 0;
};

/** What one connection's load thread saw. */
struct ConnResult
{
    std::vector<Rec> recs; ///< index = tag - 1
    PassResult checks;     ///< violations only
};

/** Check one reply against the wire contract and the reference. */
void
checkReply(const Inputs &in, const Reply &reply, ConnResult &cr,
           std::uint64_t &last_version, std::int64_t now)
{
    if (reply.tag == 0 || reply.tag > cr.recs.size() ||
        cr.recs[reply.tag - 1].answered) {
        cr.checks.violation("reply with unknown or repeated tag " +
                            std::to_string(reply.tag));
        return;
    }
    Rec &r = cr.recs[reply.tag - 1];
    const serve::Response &resp = reply.resp;
    r.answered = true;
    r.recvNs = now;
    r.status = resp.status;
    r.version = resp.modelVersion;
    r.queueUs = static_cast<float>(resp.queueUs);
    r.totalUs = static_cast<float>(resp.totalUs);
    if (resp.status != serve::Status::Ok)
        return;

    auto where = [&] {
        return " (tag " + std::to_string(reply.tag) + ", version " +
               std::to_string(resp.modelVersion) + ")";
    };
    if (resp.policy.size() != static_cast<std::size_t>(kActions)) {
        cr.checks.violation("reply carries " +
                            std::to_string(resp.policy.size()) +
                            " probabilities" + where());
        return;
    }
    double sum = 0.0;
    bool finite = true;
    for (float p : resp.policy) {
        finite = finite && std::isfinite(p) && p >= 0.0f;
        sum += p;
    }
    if (!finite || std::abs(sum - 1.0) > kProbTolerance)
        cr.checks.violation("probabilities do not sum to 1" + where());
    const int argmax = static_cast<int>(
        std::max_element(resp.policy.begin(), resp.policy.end()) -
        resp.policy.begin());
    if (resp.action < 0 || resp.action >= kActions ||
        resp.action != argmax)
        cr.checks.violation("action " + std::to_string(resp.action) +
                            " is not the argmax" + where());
    if (resp.modelVersion == 0)
        cr.checks.violation("Ok reply with no model version" + where());
    // With no publish under load every reply of a connection must
    // carry a version at least as new as the one before.
    if (resp.modelVersion < last_version)
        cr.checks.violation("model version went back from " +
                            std::to_string(last_version) + where());
    last_version = std::max(last_version, resp.modelVersion);

    const int set = setOf(resp.modelVersion);
    const auto &ref = in.refProbs[set][static_cast<std::size_t>(r.obs)];
    for (int a = 0; a < kActions; ++a)
        if (std::abs(resp.policy[a] - ref[a]) > kProbTolerance) {
            cr.checks.violation("probabilities differ from the "
                                "reference forward" + where());
            break;
        }
    if (r.obs == in.probe && resp.action != in.probeAction[set])
        cr.checks.violation("probe action " +
                            std::to_string(resp.action) + " != " +
                            std::to_string(in.probeAction[set]) + where());
}

/**
 * One load thread driving one connection: a closed loop keeping
 * kActorWindow requests in flight. Stops sending at @p stop_send_ns
 * and waits up to kDrainS for outstanding replies.
 */
void
loadMain(int conn, std::uint16_t port, const Inputs &in, std::uint64_t seed,
         std::int64_t stop_send_ns, ConnResult &cr)
{
    WireConnection c;
    if (!c.connect(port)) {
        cr.checks.violation("connection " + std::to_string(conn) +
                            " could not connect");
        return;
    }
    sim::Rng rng(seed * 0x94D049BB133111EBull + 101 +
                 static_cast<std::uint64_t>(conn));
    cr.recs.reserve(1u << 16);
    const std::int64_t give_up_ns =
        stop_send_ns + static_cast<std::int64_t>(kDrainS * 1e9);
    int inflight = 0;
    std::uint64_t last_version = 0;
    std::vector<Reply> replies;

    auto send_one = [&]() {
        Rec r;
        r.obs = static_cast<int>(rng.uniformInt(kPoolSize));
        r.sendNs = nowNs();
        cr.recs.push_back(r);
        if (!c.send(cr.recs.size(),
                    in.pool[static_cast<std::size_t>(r.obs)]))
            return false;
        ++inflight;
        return true;
    };

    for (;;) {
        std::int64_t now = nowNs();
        if (now < stop_send_ns) {
            bool ok = true;
            while (ok && inflight < kActorWindow)
                ok = send_one();
            if (!ok) {
                cr.checks.violation("send failed on connection " +
                                    std::to_string(conn));
                return;
            }
        } else if (inflight == 0 || now > give_up_ns) {
            break;
        }
        replies.clear();
        if (!c.receive(replies, 10000)) {
            cr.checks.violation("receive failed on connection " +
                                std::to_string(conn));
            return;
        }
        now = nowNs();
        for (const Reply &reply : replies) {
            checkReply(in, reply, cr, last_version, now);
            --inflight;
        }
    }
}

/** Set up a fleet and time it: construct, first publish, start,
 * listen, and one Ok reply on each of kConnections connections. */
std::unique_ptr<Fleet>
setUp(const nn::A3cNetwork &net, const Inputs &in,
      const serve::BatchScheduler::BackendFactory &factory,
      double &seconds, PassResult &res)
{
    const std::int64_t t0 = nowNs();
    auto fleet = std::make_unique<Fleet>();
    fleet->router = std::make_unique<serve::ReplicaRouter>(
        net, fleetConfig(), factory);
    const std::uint64_t v = fleet->router->publish(in.sets[setOf(1)]);
    if (v != 1)
        res.violation("first publish returned version " +
                      std::to_string(v));
    fleet->router->start();
    fleet->server = std::make_unique<serve::EventLoopServer>(
        *fleet->router, serve::EventLoopConfig{});
    if (!fleet->server->start()) {
        res.violation("event loop failed to start");
        return nullptr;
    }
    for (int i = 0; i < kConnections; ++i) {
        WireConnection c;
        std::vector<Reply> replies;
        bool ok = c.connect(fleet->server->port()) &&
                  c.send(1, in.pool[0]);
        while (ok && replies.empty())
            ok = c.receive(replies, -1);
        if (!ok || replies[0].resp.status != serve::Status::Ok) {
            res.violation("set-up request failed");
            return nullptr;
        }
    }
    seconds = static_cast<double>(nowNs() - t0) / 1e9;
    return fleet;
}

struct Publish
{
    std::int64_t t0Ns;
    std::int64_t t1Ns;
    std::uint64_t version;

    double ms() const { return static_cast<double>(t1Ns - t0Ns) / 1e6; }
};

/** Timed barrier publish of the next version. */
Publish
publishNext(serve::ReplicaRouter &router, const Inputs &in, PassResult &res)
{
    const std::uint64_t want = router.modelVersion() + 1;
    const std::int64_t t0 = nowNs();
    const std::uint64_t got = router.publish(in.sets[setOf(want)]);
    const std::int64_t t1 = nowNs();
    if (got != want)
        res.violation("publish returned version " + std::to_string(got) +
                      ", expected " + std::to_string(want));
    return {t0, t1, got};
}

/** MACs of one forward pass, from the layer geometry. */
double
forwardMacs(const nn::A3cNetwork &net)
{
    auto conv = [](const nn::ConvSpec &c) {
        return static_cast<double>(c.weightCount()) * c.outHeight() *
               c.outWidth();
    };
    return conv(net.conv1()) + conv(net.conv2()) +
           static_cast<double>(net.fc3().weightCount()) +
           static_cast<double>(net.fc4().weightCount());
}

/** Requests each replica has served so far. */
std::vector<std::uint64_t>
servedPerReplica(const serve::ReplicaRouter &router)
{
    std::vector<std::uint64_t> served;
    for (int i = 0; i < router.replicas(); ++i)
        served.push_back(
            router.replica(i).statsSnapshot().counterValue("served"));
    return served;
}

/** CPU time other work has taken beside this process so far. */
double
foreignSeconds()
{
    return hostBusySeconds() - cpuNow().total();
}

} // namespace

PassResult
runServeActors(const PassConfig &cfg)
{
    PassResult res;
    const nn::A3cNetwork net(wideNet());
    const Inputs in = makeInputs(net, cfg.seed);
    const bool traced = cfg.spans != nullptr;

    CallRecorder recorder(cfg.spans);
    serve::BatchScheduler::BackendFactory factory;
    if (traced)
        factory = recorder.factory(rl::BackendKind::FastCpu, net, 0,
                                   /*agent=*/false);

    std::vector<double> setup_s;
    std::unique_ptr<Fleet> fleet;
    for (int i = 0; i < (traced ? 1 : kSetups); ++i) {
        fleet.reset();
        double s = 0.0;
        fleet = setUp(net, in, factory, s, res);
        if (!fleet)
            return res;
        setup_s.push_back(s);
    }
    serve::ReplicaRouter &router = *fleet->router;

    std::vector<Publish> publishes;
    std::vector<double> group_foreign;
    auto idle_publishes = [&](int groups) {
        for (int g = 0; g < groups; ++g) {
            const double f0 = foreignSeconds();
            for (int i = 0; i < kPublishesPerGroup; ++i)
                publishes.push_back(publishNext(router, in, res));
            group_foreign.push_back(foreignSeconds() - f0);
        }
    };
    for (int i = 0; i < kIdleWarmPublishes; ++i)
        publishNext(router, in, res);
    idle_publishes(kPublishGroups / 2);

    const int slices = std::max(
        kMinSlices, static_cast<int>(std::lround(cfg.seconds / kSliceS)));
    const std::int64_t start = nowNs();
    const std::int64_t w0 = start + static_cast<std::int64_t>(kWarmupS * 1e9);
    const std::int64_t slice_ns =
        static_cast<std::int64_t>(cfg.seconds * 1e9) / slices;
    const std::int64_t w1 = w0 + slices * slice_ns;

    std::vector<ConnResult> conns(kConnections);
    std::vector<std::thread> load;
    for (int i = 0; i < kConnections; ++i)
        load.emplace_back(loadMain, i, fleet->server->port(), std::cref(in),
                          cfg.seed, w1,
                          std::ref(conns[static_cast<std::size_t>(i)]));

    auto sleep_until_ns = [](std::int64_t t) {
        const std::int64_t now = nowNs();
        if (t > now)
            std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
    };
    // Process CPU and host busy time at every slice boundary of the
    // measuring window.
    std::vector<CpuTimes> cpu_at;
    std::vector<double> busy_at;
    sleep_until_ns(w0);
    const std::vector<std::uint64_t> served0 = servedPerReplica(router);
    for (int k = 0; k <= slices; ++k) {
        sleep_until_ns(w0 + k * slice_ns);
        cpu_at.push_back(cpuNow());
        busy_at.push_back(hostBusySeconds());
    }
    const std::vector<std::uint64_t> served1 = servedPerReplica(router);
    for (auto &t : load)
        t.join();
    idle_publishes(kPublishGroups - kPublishGroups / 2);
    const std::uint64_t last_version = router.modelVersion();
    fleet.reset(); // joins scheduler workers: call logs are complete

    // --- checks ----------------------------------------------------
    for (auto &cr : conns) {
        res.violationCount += cr.checks.violationCount;
        for (auto &v : cr.checks.violations)
            if (res.violations.size() < 10)
                res.violations.push_back(v);
        // Barrier semantics: a request sent after publish(v) returned
        // is answered by version v or newer.
        std::size_t pi = 0;
        std::uint64_t floor_version = 0;
        for (const Rec &r : cr.recs) {
            while (pi < publishes.size() && publishes[pi].t1Ns < r.sendNs)
                floor_version = publishes[pi++].version;
            if (r.answered && r.status == serve::Status::Ok &&
                (r.version < floor_version || r.version > last_version))
                res.violation("reply version " + std::to_string(r.version) +
                              " outside [" + std::to_string(floor_version) +
                              ", " + std::to_string(last_version) +
                              "] for a request sent after the publish");
        }
    }

    // --- measurement window ----------------------------------------
    // Throughput, latency and CPU are pooled over the slices of the
    // window in which other work took the least CPU (see quietest()),
    // so a burst of CPU taken by other processes or guests moves the
    // result less.
    const double slice_s = static_cast<double>(slice_ns) / 1e9;
    std::vector<std::vector<double>> slice_latency(slices);
    std::vector<double> slice_ok(slices, 0.0);
    std::vector<double> queue_us, overhead_us;
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
        for (const Rec &r : conns[ci].recs) {
            if (r.sendNs < w0 || r.sendNs >= w1)
                continue;
            const auto k = static_cast<std::size_t>((r.sendNs - w0) / slice_ns);
            ++res.attempted;
            if (!r.answered || r.status != serve::Status::Ok) {
                ++res.failed;
                res.metrics[std::string("failed.") +
                            (r.answered ? serve::statusName(r.status)
                                        : "unanswered")]
                    .value += 1.0;
                // A failed request misses every latency limit.
                slice_latency[k].push_back(slice_s * 1e3);
                continue;
            }
            slice_ok[k] += 1.0;
            slice_latency[k].push_back(
                static_cast<double>(r.recvNs - r.sendNs) / 1e6);
            queue_us.push_back(r.queueUs);
            overhead_us.push_back(
                static_cast<double>(r.recvNs - r.sendNs) / 1e3 - r.totalUs);
            if (traced)
                cfg.spans->add(Span{cfg.spans->newId(), 0, "client.request",
                                    100 + static_cast<int>(ci), r.sendNs,
                                    r.recvNs});
        }
    }
    res.succeeded = res.attempted - res.failed;
    if (res.succeeded == 0)
        res.violation("no request succeeded in the measuring window");

    std::vector<double> slice_foreign;
    for (int k = 0; k < slices; ++k)
        slice_foreign.push_back(busy_at[k + 1] - busy_at[k] -
                                (cpu_at[k + 1].total() - cpu_at[k].total()));
    const std::vector<std::size_t> kept = quietest(slice_foreign);
    std::vector<double> latency_ms;
    double kept_ok = 0.0, kept_cpu_ms = 0.0, kept_foreign = 0.0;
    for (const std::size_t k : kept) {
        latency_ms.insert(latency_ms.end(), slice_latency[k].begin(),
                          slice_latency[k].end());
        kept_ok += slice_ok[k];
        kept_cpu_ms += (cpu_at[k + 1].total() - cpu_at[k].total()) * 1e3;
        kept_foreign += slice_foreign[k];
    }
    const double ips =
        kept_ok / (slice_s * static_cast<double>(kept.size()));
    const double all_ok =
        std::accumulate(slice_ok.begin(), slice_ok.end(), 0.0);

    std::vector<double> pub;
    for (const std::size_t g : quietest(group_foreign))
        for (int i = 0; i < kPublishesPerGroup; ++i)
            pub.push_back(
                publishes[g * kPublishesPerGroup + static_cast<std::size_t>(i)]
                    .ms());
    if (traced)
        for (const Publish &p : publishes)
            cfg.spans->add(Span{cfg.spans->newId(), 0, "registry.publish",
                                200, p.t0Ns, p.t1Ns});

    res.primary = ips;
    res.primaryHigherIsBetter = true;

    if (!traced) {
        res.setMedian("setup_s", setup_s);
        res.set("throughput_ips", ips);
        // Each reply is one step of a remote actor.
        res.set("steps_per_s", ips);
        res.set("latency_p50_ms", tail(latency_ms, 50.0));
        res.set("latency_p99_ms", tail(latency_ms, 99.0));
        res.setMedian("publish_p50_ms", pub);
        res.set("cpu_ms_per_op", kept_ok > 0.0 ? kept_cpu_ms / kept_ok : 0.0);
        const double cpus =
            static_cast<double>(std::thread::hardware_concurrency());
        // Share of the machine's CPU that other work took.
        res.set("host.foreign_share",
                std::accumulate(slice_foreign.begin(), slice_foreign.end(),
                                0.0) /
                    (slice_s * slices * cpus));
        res.set("host.foreign_share_kept",
                kept_foreign /
                    (slice_s * static_cast<double>(kept.size()) * cpus));
        // Ok replies per kept slice over those per slice of the whole
        // window: far from 1 means the kept slices follow the load.
        res.set("host.kept_ops_ratio",
                all_ok > 0.0 ? ips * slice_s * slices / all_ok : 0.0);
        res.set("peak_rss_mb", peakRssMb());
        return res;
    }

    // --- per-layer (traced) -----------------------------------------
    res.set("frontend.overhead_us_p50", tail(overhead_us, 50.0));
    const double cpu_s = cpu_at.back().total() - cpu_at.front().total();
    const double sys_s = cpu_at.back().sysS - cpu_at.front().sysS;
    res.set("cpu.sys_share", cpu_s > 0.0 ? sys_s / cpu_s : 0.0);

    double served_max = 0.0, served_sum = 0.0;
    for (std::size_t i = 0; i < served0.size(); ++i) {
        const double d = static_cast<double>(served1[i] - served0[i]);
        served_max = std::max(served_max, d);
        served_sum += d;
    }
    const double served_mean = served_sum / static_cast<double>(kReplicas);
    res.set("router.imbalance", served_mean > 0.0 ? served_max / served_mean : 0.0);
    res.set("scheduler.queue_us_p50", tail(queue_us, 50.0));
    res.set("scheduler.queue_us_p99", tail(queue_us, 99.0));

    std::vector<double> batch_us, stage_ms;
    double batches = 0.0, samples = 0.0, underfilled = 0.0, fw_ns = 0.0;
    std::uint64_t stages_after = 0;
    for (const CallLog &log : recorder.logs()) {
        for (const Call &c : log.calls) {
            if (c.kind == CallKind::Sync) {
                stage_ms.push_back(static_cast<double>(c.t1Ns - c.t0Ns) / 1e6);
                if (c.t0Ns >= w0 && c.t0Ns < w1)
                    ++stages_after;
                continue;
            }
            if (c.kind != CallKind::ForwardBatch || c.t0Ns < w0 || c.t0Ns >= w1)
                continue;
            batches += 1.0;
            samples += c.n;
            underfilled += c.n < kMaxBatch ? 1.0 : 0.0;
            fw_ns += static_cast<double>(c.t1Ns - c.t0Ns);
            batch_us.push_back(static_cast<double>(c.t1Ns - c.t0Ns) / 1e3);
        }
    }
    res.set("scheduler.batch_mean", batches > 0.0 ? samples / batches : 0.0);
    res.set("scheduler.underfilled_share",
            batches > 0.0 ? underfilled / batches : 0.0);
    res.set("backend.fw_batch_us_p50", tail(batch_us, 50.0));
    res.set("backend.fw_us_per_sample", samples > 0.0 ? fw_ns / 1e3 / samples : 0.0);
    res.set("backend.busy_share",
            fw_ns / 1e9 /
                (slice_s * slices * static_cast<double>(kReplicas)));
    res.set("backend.fw_gflops",
            fw_ns > 0.0 ? 2.0 * forwardMacs(net) * samples / fw_ns : 0.0);
    res.set("registry.publish_ms_p50", tail(pub, 50.0));
    res.set("registry.publish_ms_p99", tail(pub, 99.0));
    res.set("backend.stage_ms_p50", tail(stage_ms, 50.0));
    // No publish lands under load, so no worker should re-stage in
    // the window.
    res.set("backend.stages_after_warmup", static_cast<double>(stages_after));
    res.set("backend.stages_per_publish",
            static_cast<double>(stages_after) /
                static_cast<double>(publishes.size()));
    return res;
}

} // namespace perfbench
