/**
 * @file
 * Tests of the quantized inference backends: action/argmax parity and
 * greedy-return parity with the fp32 fast backend across the six
 * synthetic games, bit-exact batched inference, backend-name mapping,
 * checkpoint round trips through a quantized trainer backend, and a
 * PolicyServer smoke run on the int8 path.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "env/games.hh"
#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "rl/evaluate.hh"
#include "rl/fast_cpu_backend.hh"
#include "rl/paac.hh"
#include "rl/quant_backend.hh"
#include "serve/server.hh"
#include "test_util.hh"

using namespace fa3c;
using namespace fa3c::rl;
using namespace fa3c::test;

namespace {

using GameFactory =
    std::function<std::unique_ptr<env::Environment>(std::uint64_t)>;

struct Game
{
    const char *name;
    GameFactory make;
};

const Game kGames[] = {
    {"pong", env::makePong},
    {"breakout", env::makeBreakout},
    {"space_invaders", env::makeSpaceInvaders},
    {"beam_rider", env::makeBeamRider},
    {"qbert", env::makeQbert},
    {"seaquest", env::makeSeaquest},
};

env::AtariSession
makeSession(const Game &game, const nn::NetConfig &net_cfg,
            std::uint64_t seed)
{
    env::SessionConfig cfg;
    cfg.frameStack = net_cfg.inChannels;
    cfg.obsHeight = net_cfg.inHeight;
    cfg.obsWidth = net_cfg.inWidth;
    cfg.maxEpisodeFrames = 300;
    return env::AtariSession(game.make(seed), cfg, seed);
}

int
argmaxAction(const nn::A3cNetwork &net,
             const nn::A3cNetwork::Activations &act)
{
    const std::span<const float> logits = net.policyLogits(act);
    return static_cast<int>(
        std::max_element(logits.begin(), logits.end()) -
        logits.begin());
}

} // namespace

TEST(QuantBackend, ArgmaxParityAcrossSixGames)
{
    // The quantization error bound translates into action agreement:
    // across the six games the int8 and fp16 policies must pick the
    // fp32 argmax action on >= 99% of on-trajectory observations.
    constexpr int kStepsPerGame = 120;
    int total = 0;
    int agree8 = 0;
    int agree16 = 0;
    for (const auto &game : kGames) {
        const int actions = game.make(1)->numActions();
        const nn::NetConfig net_cfg = nn::NetConfig::tiny(actions);
        const nn::A3cNetwork net(net_cfg);
        sim::Rng rng(71);
        nn::ParamSet params = net.makeParams();
        net.initParams(params, rng);

        FastCpuBackend fp32(net);
        QuantCpuBackend int8(net, nn::QuantMode::Int8);
        QuantCpuBackend fp16(net, nn::QuantMode::Fp16);
        fp32.onParamSync(params);
        int8.onParamSync(params);
        fp16.onParamSync(params);

        auto session = makeSession(game, net_cfg, 5);
        nn::A3cNetwork::Activations a32 = net.makeActivations();
        nn::A3cNetwork::Activations a8 = net.makeActivations();
        nn::A3cNetwork::Activations a16 = net.makeActivations();
        for (int step = 0; step < kStepsPerGame; ++step) {
            const tensor::Tensor obs = session.observation();
            fp32.forward(params, obs, a32);
            int8.forward(params, obs, a8);
            fp16.forward(params, obs, a16);
            const int want = argmaxAction(net, a32);
            ++total;
            agree8 += argmaxAction(net, a8) == want ? 1 : 0;
            agree16 += argmaxAction(net, a16) == want ? 1 : 0;
            session.act(want); // follow the fp32 policy
        }
    }
    EXPECT_GE(agree8, (total * 99 + 99) / 100)
        << "int8 argmax agreement " << agree8 << "/" << total;
    EXPECT_GE(agree16, (total * 99 + 99) / 100)
        << "fp16 argmax agreement " << agree16 << "/" << total;
}

TEST(QuantBackend, GreedyReturnParityAcrossSixGames)
{
    // Greedy evaluation from identical session seeds: the quantized
    // policies must land within a small band of the fp32 returns.
    for (const auto &game : kGames) {
        const int actions = game.make(1)->numActions();
        const nn::NetConfig net_cfg = nn::NetConfig::tiny(actions);
        const nn::A3cNetwork net(net_cfg);
        sim::Rng rng(83);
        nn::ParamSet params = net.makeParams();
        net.initParams(params, rng);

        FastCpuBackend fp32(net);
        QuantCpuBackend int8(net, nn::QuantMode::Int8);
        fp32.onParamSync(params);
        int8.onParamSync(params);

        EvalConfig cfg;
        cfg.episodes = 2;
        cfg.greedy = true;
        auto s32 = makeSession(game, net_cfg, 13);
        auto s8 = makeSession(game, net_cfg, 13);
        const EvalResult r32 = evaluatePolicy(fp32, params, s32, cfg);
        const EvalResult r8 = evaluatePolicy(int8, params, s8, cfg);
        EXPECT_NEAR(r8.scores.mean(), r32.scores.mean(), 3.0)
            << game.name;
    }
}

TEST(QuantBackend, ForwardBatchBitExactWithSingleForward)
{
    // The quantized forward computes per-sample scales and shares the
    // batched FC path with the single forward, so batching must be
    // bit-exact, for both quantized modes.
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    sim::Rng rng(7);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);

    for (const auto mode :
         {nn::QuantMode::Int8, nn::QuantMode::Fp16}) {
        QuantCpuBackend batched(net, mode);
        QuantCpuBackend single(net, mode);
        batched.onParamSync(params);
        single.onParamSync(params);

        const int batch = 6;
        std::vector<tensor::Tensor> obs;
        std::vector<nn::A3cNetwork::Activations> acts;
        for (int s = 0; s < batch; ++s) {
            tensor::Tensor o(tensor::Shape({net.config().inChannels,
                                            net.config().inHeight,
                                            net.config().inWidth}));
            randomize(o, rng);
            // Observations are non-negative in the activation domain
            // the quantized path is specified for.
            for (std::size_t i = 0; i < o.numel(); ++i)
                o.data()[i] = std::fabs(o.data()[i]);
            obs.push_back(std::move(o));
            acts.push_back(net.makeActivations());
        }
        std::vector<const tensor::Tensor *> obs_ptrs;
        std::vector<nn::A3cNetwork::Activations *> act_ptrs;
        for (int s = 0; s < batch; ++s) {
            obs_ptrs.push_back(&obs[static_cast<std::size_t>(s)]);
            act_ptrs.push_back(&acts[static_cast<std::size_t>(s)]);
        }
        batched.forwardBatch(params, obs_ptrs, act_ptrs);

        for (int s = 0; s < batch; ++s) {
            nn::A3cNetwork::Activations ref = net.makeActivations();
            single.forward(params, obs[static_cast<std::size_t>(s)],
                           ref);
            const auto &got = acts[static_cast<std::size_t>(s)];
            for (std::size_t i = 0; i < ref.out.numel(); ++i)
                EXPECT_EQ(got.out.data()[i], ref.out.data()[i])
                    << "mode " << static_cast<int>(mode) << " sample "
                    << s << " out " << i;
        }
    }
}

TEST(QuantBackend, MakeDnnBackendAndNamesCoverQuantKinds)
{
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    auto int8 = makeDnnBackend(BackendKind::Int8, net);
    auto fp16 = makeDnnBackend(BackendKind::Fp16, net);
    EXPECT_NE(dynamic_cast<QuantCpuBackend *>(int8.get()), nullptr);
    EXPECT_NE(dynamic_cast<QuantCpuBackend *>(fp16.get()), nullptr);
    EXPECT_TRUE(int8->wantsQuantized());
    EXPECT_EQ(backendKindFromName("int8"), BackendKind::Int8);
    EXPECT_EQ(backendKindFromName("fp16"), BackendKind::Fp16);
    EXPECT_STREQ(backendKindName(BackendKind::Int8), "int8");
    EXPECT_STREQ(backendKindName(BackendKind::Fp16), "fp16");
}

TEST(QuantBackend, CheckpointRoundTripsThroughQuantizedTrainer)
{
    // A checkpoint written under the fp32 fast backend restores into
    // an int8-backend trainer (parameters are backend-agnostic) and
    // training continues: quantized forward, inherited fp32 backward.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    auto sessions = [net_cfg](int agent_id) {
        env::SessionConfig cfg;
        cfg.frameStack = net_cfg.inChannels;
        cfg.obsHeight = net_cfg.inHeight;
        cfg.obsWidth = net_cfg.inWidth;
        cfg.maxEpisodeFrames = 600;
        return std::make_unique<env::AtariSession>(
            env::makePong(61 + static_cast<std::uint64_t>(agent_id)),
            cfg, 61 + static_cast<std::uint64_t>(agent_id));
    };

    PaacConfig cfg;
    cfg.numEnvs = 3;
    cfg.totalSteps = 200;
    cfg.seed = 15;
    cfg.lrAnnealSteps = 0;
    cfg.backend = BackendKind::FastCpu;
    PaacTrainer fast_trainer(net, cfg, {}, sessions);
    fast_trainer.run();
    const TrainingCheckpoint ckpt = fast_trainer.checkpoint();

    cfg.backend = BackendKind::Int8;
    cfg.totalSteps = 400;
    PaacTrainer int8_trainer(net, cfg, {}, sessions);
    ASSERT_TRUE(int8_trainer.restore(ckpt));
    const std::uint64_t resumed_at =
        int8_trainer.globalParams().globalSteps();
    EXPECT_GE(resumed_at, 200u);
    int8_trainer.run();
    EXPECT_GT(int8_trainer.globalParams().globalSteps(), resumed_at);

    // And back: a quantized-trainer checkpoint restores under fp16.
    const TrainingCheckpoint ckpt2 = int8_trainer.checkpoint();
    cfg.backend = BackendKind::Fp16;
    cfg.totalSteps = 500;
    PaacTrainer fp16_trainer(net, cfg, {}, sessions);
    ASSERT_TRUE(fp16_trainer.restore(ckpt2));
    fp16_trainer.run();
    EXPECT_GE(fp16_trainer.globalParams().globalSteps(), 500u);
}

TEST(QuantBackend, PolicyServerServesOnInt8Backend)
{
    using namespace fa3c::serve;
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    const nn::A3cNetwork net(net_cfg);

    ServeConfig cfg;
    cfg.queue.maxDepth = 256;
    cfg.batch.maxBatch = 4;
    cfg.workers = 1;
    cfg.backend = BackendKind::Int8;
    PolicyServer server(net, cfg);

    sim::Rng rng(29);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);
    server.publish(std::move(params));
    server.start();

    tensor::Tensor obs(tensor::Shape(
        {net_cfg.inChannels, net_cfg.inHeight, net_cfg.inWidth}));
    for (std::size_t i = 0; i < obs.numel(); ++i)
        obs.data()[i] = static_cast<float>(i % 17) / 17.0f;

    for (int i = 0; i < 20; ++i) {
        auto future = server.submit(obs);
        const Response resp = future.get();
        ASSERT_EQ(resp.status, Status::Ok);
        EXPECT_GE(resp.action, 0);
        EXPECT_LT(resp.action, net_cfg.numActions);
        EXPECT_TRUE(std::isfinite(resp.value));
        EXPECT_EQ(resp.modelVersion, 1u);
    }
    sim::StatGroup stats = server.statsSnapshot();
    EXPECT_GE(stats.counter("served").value(), 20u);
    server.stop();
}

TEST(QuantBackend, InheritedBackwardMatchesFastCpu)
{
    // Training stays fp32: given the same activations, the inherited
    // backward must equal FastCpuBackend's bit for bit, which needs
    // the fp32 images (conv2's transposed weights) staged even though
    // the quantized sync only builds the quantized image.
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    sim::Rng rng(29);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);
    tensor::Tensor obs(tensor::Shape({net.config().inChannels,
                                      net.config().inHeight,
                                      net.config().inWidth}));
    randomize(obs, rng);
    tensor::Tensor g_out(tensor::Shape({net.outSize()}));
    randomize(g_out, rng);

    FastCpuBackend fast(net);
    fast.onParamSync(params);
    nn::A3cNetwork::Activations act = net.makeActivations();
    fast.forward(params, obs, act);
    nn::ParamSet want = net.makeParams();
    fast.backward(params, act, g_out, want);

    for (const nn::QuantMode mode :
         {nn::QuantMode::Int8, nn::QuantMode::Fp16}) {
        QuantCpuBackend quant(net, mode);
        quant.onParamSync(params);
        nn::ParamSet got = net.makeParams();
        quant.backward(params, act, g_out, got);
        const std::vector<float> w(want.flat().begin(), want.flat().end());
        const std::vector<float> g(got.flat().begin(), got.flat().end());
        EXPECT_EQ(g, w) << "mode " << static_cast<int>(mode);
    }
}
