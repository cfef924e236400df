/** @file
 * End-to-end tests of the parameter-server core over real loopback
 * TCP: join/pull/push/heartbeat/stats/bye, layout-mismatch rejection
 * at Hello, the staleness bound in synchronous mode, lease expiry for
 * a silent worker, PS checkpoint/restore across a restart, and the
 * exact RMSProp arithmetic of a push.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "dist/ps_client.hh"
#include "dist/ps_server.hh"
#include "net/frame.hh"
#include "nn/a3c_network.hh"
#include "nn/rmsprop.hh"
#include "sim/rng.hh"

using namespace fa3c;
using namespace fa3c::dist;
using namespace std::chrono_literals;

namespace {

nn::NetConfig
tinyNet()
{
    return nn::NetConfig::tiny(4);
}

wire::Hello
helloFor(const nn::A3cNetwork &net, const std::string &name)
{
    wire::Hello h;
    h.workerName = name;
    h.paramCount = net.makeParams().size();
    h.layoutCrc = wire::layoutCrc(net.makeParams());
    return h;
}

struct TempFile
{
    explicit TempFile(const char *name)
        : path(std::string("/tmp/") + name)
    {
        std::remove(path.c_str());
    }
    ~TempFile()
    {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    std::string path;
};

/** Poll @p pred for up to @p budget. */
template <typename Pred>
bool
eventually(Pred pred, std::chrono::milliseconds budget = 5000ms)
{
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return pred();
}

} // namespace

TEST(DistPs, HelloPullPushHeartbeatStatsBye)
{
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());
    ASSERT_GT(ps.port(), 0);

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));

    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
    EXPECT_NE(welcome.workerId, 0u);
    EXPECT_EQ(welcome.version, 0u);
    EXPECT_EQ(welcome.leaseTtlMs, cfg.leaseTtlMs);
    EXPECT_EQ(welcome.maxStaleness,
              std::numeric_limits<std::uint64_t>::max());

    const std::size_t count = net.makeParams().size();
    wire::Params params;
    ASSERT_TRUE(client.pull(params, count));
    EXPECT_EQ(params.version, 0u);
    EXPECT_EQ(params.theta.size(), count);

    wire::Push push;
    push.workerId = welcome.workerId;
    push.baseVersion = params.version;
    push.steps = 20;
    push.wantParams = 1;
    push.grads.assign(count, 0.5f);
    wire::PushAck ack;
    ASSERT_TRUE(client.push(push, ack, count));
    EXPECT_EQ(ack.accepted, 1u);
    EXPECT_EQ(ack.version, 1u);
    EXPECT_EQ(ack.steps, 20u);
    EXPECT_EQ(ack.staleness, 0u);
    ASSERT_EQ(ack.theta.size(), count);

    // The update actually moved theta: g = 0.01*d^2 after one push,
    // so each word shifts by eta*d/sqrt(g+eps).
    bool moved = false;
    for (std::size_t i = 0; i < count; ++i)
        moved = moved || ack.theta[i] != params.theta[i];
    EXPECT_TRUE(moved);

    wire::HeartbeatAck hb;
    ASSERT_TRUE(client.heartbeat(welcome.workerId, hb));
    EXPECT_EQ(hb.known, 1u);
    EXPECT_EQ(hb.stop, 0u);

    wire::HeartbeatAck unknown;
    ASSERT_TRUE(client.heartbeat(welcome.workerId + 500, unknown));
    EXPECT_EQ(unknown.known, 0u);

    wire::StatsReply stats;
    ASSERT_TRUE(client.stats(stats));
    EXPECT_EQ(stats.version, 1u);
    EXPECT_EQ(stats.steps, 20u);
    EXPECT_EQ(stats.activeLeases, 1u);
    EXPECT_EQ(stats.joined, 1u);
    EXPECT_EQ(stats.pushes, 1u);
    EXPECT_EQ(stats.pushRejects, 0u);

    client.bye(welcome.workerId);
    EXPECT_TRUE(eventually([&] { return ps.leases().active() == 0; }));
    EXPECT_EQ(ps.leases().reaped(), 0u); // a Bye is not a reap
    ps.stop();
}

TEST(DistPs, LayoutMismatchRejectedAtHello)
{
    const nn::A3cNetwork net(tinyNet());
    PsServer ps(net, {});
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Hello bad = helloFor(net, "mismatched");
    bad.layoutCrc ^= 0xFFFFFFFF;
    wire::Welcome welcome;
    EXPECT_FALSE(client.hello(bad, welcome));
    EXPECT_EQ(ps.leases().active(), 0u);

    // Wrong parameter count is refused the same way.
    PsClient client2;
    ASSERT_TRUE(client2.connect("127.0.0.1", ps.port()));
    wire::Hello short_count = helloFor(net, "short");
    short_count.paramCount -= 1;
    EXPECT_FALSE(client2.hello(short_count, welcome));
    EXPECT_EQ(ps.leases().active(), 0u);
    ps.stop();
}

TEST(DistPs, OversizeFrameClaimClosesConnectionPromptly)
{
    const nn::A3cNetwork net(tinyNet());
    PsServer ps(net, {});
    ASSERT_TRUE(ps.start());

    // A header claiming one byte more than any legitimate message of
    // this network, and no body: the PS must refuse the claim before
    // it allocates or waits for a single payload byte.
    const int fd =
        net::connectTcp("127.0.0.1", static_cast<std::uint16_t>(ps.port()));
    ASSERT_GE(fd, 0);
    const std::uint32_t cap =
        wire::maxPayloadBytes(net.makeParams().size());
    std::vector<std::uint8_t> header;
    net::encodeFrameHeader(
        header, {wire::kMagic, static_cast<std::uint32_t>(wire::Type::Push),
                 cap + 1});
    ASSERT_TRUE(net::writeFull(fd, header.data(), header.size()));

    pollfd pfd{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1)
        << "the PS is still waiting for the claimed payload";
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    // The PS keeps serving well-formed peers.
    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    EXPECT_TRUE(client.hello(helloFor(net, "after"), welcome));
    ps.stop();
}

TEST(DistPs, SyncModeRejectsStalePushes)
{
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.maxStaleness = 0; // fully synchronous
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));

    const std::size_t count = net.makeParams().size();
    wire::Push push;
    push.workerId = welcome.workerId;
    push.baseVersion = 0;
    push.steps = 10;
    push.grads.assign(count, 1.0f);

    wire::PushAck first;
    ASSERT_TRUE(client.push(push, first, count));
    EXPECT_EQ(first.accepted, 1u);
    EXPECT_EQ(first.version, 1u);

    // Same baseVersion again: one update behind, over the bound.
    wire::PushAck second;
    ASSERT_TRUE(client.push(push, second, count));
    EXPECT_EQ(second.accepted, 0u);
    EXPECT_EQ(second.staleness, 1u);
    EXPECT_EQ(second.version, 1u); // gradients were discarded

    // Rebasing on the current version is accepted again.
    push.baseVersion = second.version;
    wire::PushAck third;
    ASSERT_TRUE(client.push(push, third, count));
    EXPECT_EQ(third.accepted, 1u);
    EXPECT_EQ(third.version, 2u);

    const wire::StatsReply stats = ps.stats();
    EXPECT_EQ(stats.pushes, 2u);
    EXPECT_EQ(stats.pushRejects, 1u);
    ps.stop();
}

TEST(DistPs, PushFromReapedLeaseCarriesSentinelStaleness)
{
    const nn::A3cNetwork net(tinyNet());
    PsServer ps(net, {});
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
    ASSERT_TRUE(ps.leases().reap(welcome.workerId));

    const std::size_t count = net.makeParams().size();
    wire::Push push;
    push.workerId = welcome.workerId;
    push.steps = 10;
    push.grads.assign(count, 1.0f);
    wire::PushAck ack;
    ASSERT_TRUE(client.push(push, ack, count));
    EXPECT_EQ(ack.accepted, 0u);
    // The sentinel tells the worker "your lease is gone, re-Hello"
    // as opposed to "you were too stale, rebase".
    EXPECT_EQ(ack.staleness, std::numeric_limits<std::uint64_t>::max());

    // Re-Hello on the same connection gets a fresh lease and works.
    wire::Welcome second;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), second));
    EXPECT_NE(second.workerId, welcome.workerId);
    push.workerId = second.workerId;
    push.baseVersion = second.version;
    ASSERT_TRUE(client.push(push, ack, count));
    EXPECT_EQ(ack.accepted, 1u);
    EXPECT_EQ(ps.leases().joined(), 2u);
    ps.stop();
}

TEST(DistPs, SilentWorkerReapedAfterTtl)
{
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.leaseTtlMs = 100;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "quiet"), welcome));
    ASSERT_EQ(ps.leases().active(), 1u);

    // Keep the connection open but never renew: the housekeeper must
    // reap within a TTL or two.
    EXPECT_TRUE(eventually([&] { return ps.leases().reaped() == 1; }));
    EXPECT_EQ(ps.leases().active(), 0u);

    wire::HeartbeatAck hb;
    ASSERT_TRUE(client.heartbeat(welcome.workerId, hb));
    EXPECT_EQ(hb.known, 0u);
    ps.stop();
}

TEST(DistPs, StopAfterTotalStepsAcksStop)
{
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.totalSteps = 30;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
    EXPECT_EQ(welcome.totalSteps, 30u);

    const std::size_t count = net.makeParams().size();
    wire::Push push;
    push.workerId = welcome.workerId;
    push.steps = 20;
    push.wantParams = 0;
    push.grads.assign(count, 0.25f);

    wire::PushAck ack;
    ASSERT_TRUE(client.push(push, ack, count));
    EXPECT_EQ(ack.stop, 0u);
    EXPECT_FALSE(ps.done());

    push.baseVersion = ack.version;
    ASSERT_TRUE(client.push(push, ack, count)); // crosses 30
    EXPECT_EQ(ack.stop, 1u);
    EXPECT_TRUE(ps.waitDone(5000));
    EXPECT_TRUE(ps.done());
    ps.stop();
}

TEST(DistPs, CheckpointRestoreAcrossRestartPreservesEverything)
{
    const nn::A3cNetwork net(tinyNet());
    TempFile file("fa3c_test_dist_ps_ckpt.bin");
    const std::size_t count = net.makeParams().size();

    std::vector<float> theta_before;
    std::uint64_t version_before = 0;
    std::uint64_t steps_before = 0;
    {
        PsServerConfig cfg;
        cfg.checkpointPath = file.path;
        cfg.seed = 17;
        PsServer ps(net, cfg);
        ASSERT_TRUE(ps.start());

        PsClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
        wire::Welcome welcome;
        ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
        wire::Push push;
        push.workerId = welcome.workerId;
        push.steps = 10;
        push.grads.assign(count, 0.5f);
        wire::PushAck ack;
        for (int i = 0; i < 3; ++i) {
            push.baseVersion = ack.version;
            ASSERT_TRUE(client.push(push, ack, count));
            ASSERT_EQ(ack.accepted, 1u);
        }
        ps.params().snapshot(theta_before);
        version_before = ps.params().version();
        steps_before = ps.params().steps();
        ps.stop(); // writes the final checkpoint
    }
    ASSERT_TRUE(std::ifstream(file.path).good());

    // A fresh PS process restores the durable image: same theta, and
    // the version counter resumes where it left off rather than
    // restarting from zero (staleness accounting must stay honest
    // across a PS restart).
    PsServerConfig cfg;
    cfg.checkpointPath = file.path;
    cfg.seed = 9999; // must be ignored: state comes from the image
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());
    EXPECT_EQ(ps.params().version(), version_before);
    EXPECT_EQ(ps.params().steps(), steps_before);
    std::vector<float> theta_after;
    ps.params().snapshot(theta_after);
    EXPECT_EQ(theta_after, theta_before);
    ps.stop();
}

TEST(DistPs, CorruptCheckpointRefusesToStart)
{
    const nn::A3cNetwork net(tinyNet());
    TempFile file("fa3c_test_dist_ps_corrupt.bin");
    {
        PsServerConfig cfg;
        cfg.checkpointPath = file.path;
        PsServer ps(net, cfg);
        ASSERT_TRUE(ps.start());
        ps.stop();
    }

    // Flip one payload byte; the PS must refuse to run on a corrupt
    // image instead of silently reinitializing (which would erase
    // training progress behind the operator's back).
    {
        std::fstream f(file.path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(40);
        char byte = 0;
        f.seekg(40);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(40);
        f.write(&byte, 1);
    }
    PsServerConfig cfg;
    cfg.checkpointPath = file.path;
    PsServer ps(net, cfg);
    EXPECT_FALSE(ps.start());
}

TEST(DistPs, PushesApplyExactlyTheAnnealedRmspropUpdate)
{
    // N accepted pushes must leave theta bit-identical to N
    // nn::rmspropApply calls over the flat arrays, each at the
    // linearly annealed learning rate of the steps consumed before it.
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.initialLr = 1e-3f;
    cfg.annealSteps = 100;
    cfg.seed = 33;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
    const std::size_t count = net.makeParams().size();
    wire::Params pulled;
    ASSERT_TRUE(client.pull(pulled, count));

    std::vector<float> theta = pulled.theta;
    std::vector<float> g(count, 0.0f);
    std::uint64_t steps = 0;
    wire::Push push;
    push.workerId = welcome.workerId;
    push.steps = 30;
    push.grads.resize(count);
    wire::PushAck ack;
    sim::Rng grad_rng(91);
    // Five pushes of 30 steps against a 100-step horizon: the last
    // two run at lr 0, which must leave theta and g untouched.
    for (int round = 0; round < 5; ++round) {
        for (float &x : push.grads)
            x = grad_rng.uniformF() - 0.5f;
        push.baseVersion = ack.version;
        ASSERT_TRUE(client.push(push, ack, count));
        ASSERT_EQ(ack.accepted, 1u);
        EXPECT_EQ(ack.version, static_cast<std::uint64_t>(round + 1));

        const float lr =
            steps >= cfg.annealSteps
                ? 0.0f
                : static_cast<float>(
                      cfg.initialLr *
                      (1.0 - static_cast<double>(steps) /
                                 static_cast<double>(cfg.annealSteps)));
        if (lr > 0.0f)
            nn::rmspropApply(theta, g, push.grads, lr, cfg.rmsprop);
        steps += push.steps;
    }
    EXPECT_EQ(ps.params().version(), 5u);
    EXPECT_EQ(ps.params().globalSteps(), steps);
    EXPECT_EQ(ps.params().currentLearningRate(), 0.0f);

    std::vector<float> got;
    ps.params().snapshot(got);
    EXPECT_EQ(got, theta);
    ps.stop();
}
