#include "nn/a3c_network.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace fa3c::nn {

NetConfig
NetConfig::atari(int num_actions)
{
    NetConfig cfg;
    cfg.numActions = num_actions;
    return cfg;
}

NetConfig
NetConfig::tiny(int num_actions)
{
    NetConfig cfg;
    // 21 divides the 84x84 game frame evenly (4x average pooling).
    cfg.inChannels = 4;
    cfg.inHeight = 21;
    cfg.inWidth = 21;
    cfg.conv1Filters = 8;
    cfg.conv1Kernel = 4;
    cfg.conv1Stride = 2;
    cfg.conv2Filters = 16;
    cfg.conv2Kernel = 3;
    cfg.conv2Stride = 1;
    cfg.fcSize = 64;
    cfg.numActions = num_actions;
    cfg.fc4HardwareLanes = 16;
    return cfg;
}

A3cNetwork::A3cNetwork(const NetConfig &cfg)
    : cfg_(cfg),
      conv1_{cfg.inChannels, cfg.inHeight, cfg.inWidth, cfg.conv1Filters,
             cfg.conv1Kernel, cfg.conv1Stride},
      conv2_{cfg.conv1Filters, conv1_.outHeight(), conv1_.outWidth(),
             cfg.conv2Filters, cfg.conv2Kernel, cfg.conv2Stride},
      fc3_{cfg.conv2Filters * conv2_.outHeight() * conv2_.outWidth(),
           cfg.fcSize},
      fc4_{cfg.fcSize, cfg.numActions + 1}
{
    FA3C_ASSERT(conv1_.outHeight() > 0 && conv2_.outHeight() > 0,
                "network config produces empty feature maps");
}

std::size_t
A3cNetwork::paramCount() const
{
    return conv1_.weightCount() + conv1_.biasCount() +
           conv2_.weightCount() + conv2_.biasCount() + fc3_.weightCount() +
           fc3_.biasCount() + fc4_.weightCount() + fc4_.biasCount();
}

ParamSet::Layout
A3cNetwork::paramLayout() const
{
    return {
        {"conv1.w", conv1_.weightCount()},
        {"conv1.b", conv1_.biasCount()},
        {"conv2.w", conv2_.weightCount()},
        {"conv2.b", conv2_.biasCount()},
        {"fc3.w", fc3_.weightCount()},
        {"fc3.b", fc3_.biasCount()},
        {"fc4.w", fc4_.weightCount()},
        {"fc4.b", fc4_.biasCount()},
    };
}

void
A3cNetwork::initParams(ParamSet &params, sim::Rng &rng) const
{
    // Fan-in-scaled uniform initialization, the same scheme as the
    // open-source A3C implementation the paper benchmarks against.
    auto init = [&rng](std::span<float> w, int fan_in) {
        const float bound = 1.0f / std::sqrt(static_cast<float>(fan_in));
        for (float &v : w)
            v = -bound + 2.0f * bound * rng.uniformF();
    };
    const int conv1_fan =
        conv1_.inChannels * conv1_.kernel * conv1_.kernel;
    const int conv2_fan =
        conv2_.inChannels * conv2_.kernel * conv2_.kernel;
    init(params.view("conv1.w"), conv1_fan);
    init(params.view("conv1.b"), conv1_fan);
    init(params.view("conv2.w"), conv2_fan);
    init(params.view("conv2.b"), conv2_fan);
    init(params.view("fc3.w"), fc3_.inFeatures);
    init(params.view("fc3.b"), fc3_.inFeatures);
    init(params.view("fc4.w"), fc4_.inFeatures);
    init(params.view("fc4.b"), fc4_.inFeatures);
}

A3cNetwork::Activations
A3cNetwork::makeActivations() const
{
    Activations act;
    act.input = Tensor(
        tensor::Shape({cfg_.inChannels, cfg_.inHeight, cfg_.inWidth}));
    act.conv1Pre = Tensor(tensor::Shape(
        {conv1_.outChannels, conv1_.outHeight(), conv1_.outWidth()}));
    act.conv1Act = Tensor(act.conv1Pre.shape());
    act.conv2Pre = Tensor(tensor::Shape(
        {conv2_.outChannels, conv2_.outHeight(), conv2_.outWidth()}));
    act.conv2Act = Tensor(act.conv2Pre.shape());
    act.conv2Flat = Tensor(tensor::Shape({fc3_.inFeatures}));
    act.fc3Pre = Tensor(tensor::Shape({fc3_.outFeatures}));
    act.fc3Act = Tensor(tensor::Shape({fc3_.outFeatures}));
    act.out = Tensor(tensor::Shape({fc4_.outFeatures}));
    return act;
}

void
A3cNetwork::forward(const ParamSet &params, const Tensor &obs,
                    Activations &act) const
{
    act.input = obs;
    convForward(conv1_, act.input, params.view("conv1.w"),
                params.view("conv1.b"), act.conv1Pre);
    reluForward(act.conv1Pre, act.conv1Act);
    convForward(conv2_, act.conv1Act, params.view("conv2.w"),
                params.view("conv2.b"), act.conv2Pre);
    reluForward(act.conv2Pre, act.conv2Act);
    std::copy(act.conv2Act.data().begin(), act.conv2Act.data().end(),
              act.conv2Flat.data().begin());
    fcForward(fc3_, act.conv2Flat, params.view("fc3.w"),
              params.view("fc3.b"), act.fc3Pre);
    reluForward(act.fc3Pre, act.fc3Act);
    fcForward(fc4_, act.fc3Act, params.view("fc4.w"),
              params.view("fc4.b"), act.out);
}

void
A3cNetwork::backward(const ParamSet &params, const Activations &act,
                     const Tensor &g_out, ParamSet &grads) const
{
    FA3C_ASSERT(g_out.numel() ==
                    static_cast<std::size_t>(fc4_.outFeatures),
                "backward g_out size");

    // FC4: GC then BW.
    Tensor g_fc3_act(tensor::Shape({fc3_.outFeatures}));
    fcGradient(fc4_, act.fc3Act, g_out, grads.view("fc4.w"),
               grads.view("fc4.b"));
    fcBackward(fc4_, g_out, params.view("fc4.w"), g_fc3_act);

    // ReLU before FC4.
    Tensor g_fc3_pre(tensor::Shape({fc3_.outFeatures}));
    reluBackward(act.fc3Pre, g_fc3_act, g_fc3_pre);

    // FC3.
    Tensor g_conv2_flat(tensor::Shape({fc3_.inFeatures}));
    fcGradient(fc3_, act.conv2Flat, g_fc3_pre, grads.view("fc3.w"),
               grads.view("fc3.b"));
    fcBackward(fc3_, g_fc3_pre, params.view("fc3.w"), g_conv2_flat);

    // ReLU before FC3 (applied on the conv2 feature map).
    Tensor g_conv2_act(act.conv2Pre.shape());
    std::copy(g_conv2_flat.data().begin(), g_conv2_flat.data().end(),
              g_conv2_act.data().begin());
    Tensor g_conv2_pre(act.conv2Pre.shape());
    reluBackward(act.conv2Pre, g_conv2_act, g_conv2_pre);

    // Conv2.
    Tensor g_conv1_act(act.conv1Pre.shape());
    convGradient(conv2_, act.conv1Act, g_conv2_pre, grads.view("conv2.w"),
                 grads.view("conv2.b"));
    convBackward(conv2_, g_conv2_pre, params.view("conv2.w"),
                 g_conv1_act);

    // ReLU before Conv2.
    Tensor g_conv1_pre(act.conv1Pre.shape());
    reluBackward(act.conv1Pre, g_conv1_act, g_conv1_pre);

    // Conv1: gradient only; BW into the game screen is not needed.
    convGradient(conv1_, act.input, g_conv1_pre, grads.view("conv1.w"),
                 grads.view("conv1.b"));
}

std::span<const float>
A3cNetwork::policyLogits(const Activations &act) const
{
    return act.out.data().subspan(
        0, static_cast<std::size_t>(cfg_.numActions));
}

float
A3cNetwork::value(const Activations &act) const
{
    return act.out.data()[static_cast<std::size_t>(cfg_.numActions)];
}

std::vector<A3cNetwork::LayerInfo>
A3cNetwork::layerTable() const
{
    const std::size_t input_features =
        static_cast<std::size_t>(cfg_.inChannels) *
        static_cast<std::size_t>(cfg_.inHeight) *
        static_cast<std::size_t>(cfg_.inWidth);
    const std::size_t conv1_out = static_cast<std::size_t>(
        conv1_.outChannels * conv1_.outHeight() * conv1_.outWidth());
    const std::size_t conv2_out = static_cast<std::size_t>(
        conv2_.outChannels * conv2_.outHeight() * conv2_.outWidth());
    return {
        {"Input", 0, input_features},
        {"Convolution (Conv1)", conv1_.weightCount() + conv1_.biasCount(),
         conv1_out},
        {"ReLU activation", 0, conv1_out},
        {"Convolution (Conv2)", conv2_.weightCount() + conv2_.biasCount(),
         conv2_out},
        {"ReLU activation", 0, conv2_out},
        {"Fully-connected (FC3)", fc3_.weightCount() + fc3_.biasCount(),
         static_cast<std::size_t>(fc3_.outFeatures)},
        {"ReLU activation", 0,
         static_cast<std::size_t>(fc3_.outFeatures)},
        // Table 1 reports the hardware-padded FC4 (32 output lanes).
        {"Fully-connected (FC4)",
         static_cast<std::size_t>(fc4_.inFeatures) *
                 static_cast<std::size_t>(cfg_.fc4HardwareLanes) +
             static_cast<std::size_t>(cfg_.fc4HardwareLanes),
         static_cast<std::size_t>(cfg_.fc4HardwareLanes)},
        {"Softmax (action) / Linear (value)", 0,
         static_cast<std::size_t>(outSize())},
    };
}

} // namespace fa3c::nn
