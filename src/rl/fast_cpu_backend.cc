#include "rl/fast_cpu_backend.hh"

#include "rl/quant_backend.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "nn/kernels/conv.hh"
#include "nn/kernels/fc.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/im2col.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "sim/logging.hh"

namespace fa3c::rl {

FastCpuBackend::KernelTimer::KernelTimer(const char *name)
    : name_(name), enabled_(obs::metrics().enabled())
{
    if (enabled_)
        start_ = std::chrono::steady_clock::now();
}

FastCpuBackend::KernelTimer::~KernelTimer()
{
    if (!enabled_)
        return;
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    obs::metrics().sample("nn.kernel", name_, us);
}

FastCpuBackend::FastCpuBackend(const nn::A3cNetwork &net)
    : net_(net),
      conv2WT_(net.conv2().weightCount()),
      fc4Small_(net.fc4().outFeatures < nn::kernels::kSmallFcMaxOut),
      colScratch_(std::max(nn::kernels::colSize(net.conv1()),
                           nn::kernels::colSize(net.conv2()))),
      gFc3Act_(tensor::Shape({net.fc3().outFeatures})),
      gFc3Pre_(tensor::Shape({net.fc3().outFeatures})),
      gConv2Flat_(tensor::Shape({net.fc3().inFeatures})),
      gConv2Act_(tensor::Shape({net.conv2().outChannels,
                                net.conv2().outHeight(),
                                net.conv2().outWidth()})),
      gConv2Pre_(gConv2Act_.shape()),
      gConv1Act_(tensor::Shape({net.conv1().outChannels,
                                net.conv1().outHeight(),
                                net.conv1().outWidth()})),
      gConv1Pre_(gConv1Act_.shape())
{
}

void
FastCpuBackend::onParamSync(const nn::ParamSet &params)
{
    FA3C_PROF_SCOPE("backend.param_sync");
    const nn::ConvSpec &c2 = net_.conv2();
    const nn::FcSpec &f3 = net_.fc3();
    const nn::FcSpec &f4 = net_.fc4();
    nn::kernels::transpose(
        params.view("conv2.w").data(), c2.outChannels,
        static_cast<int>(nn::kernels::patchSize(c2)), conv2WT_.data());
    // FC forward panels, packed in one pass straight from the
    // canonical [O][I] weights, sized on first use (a quantized
    // subclass that never runs the fp32 forward holds none). A small
    // FC4 head needs no image — its forward runs the canonical-row
    // dot kernel off the ParamSet.
    fc3Panels_.resize(
        nn::kernels::gemmPanelSize(f3.outFeatures, f3.inFeatures));
    nn::kernels::gemmPackPanelsT(f3.outFeatures, f3.inFeatures,
                                 params.view("fc3.w").data(),
                                 f3.inFeatures, fc3Panels_.data());
    if (!fc4Small_) {
        fc4Panels_.resize(
            nn::kernels::gemmPanelSize(f4.outFeatures, f4.inFeatures));
        nn::kernels::gemmPackPanelsT(f4.outFeatures, f4.inFeatures,
                                     params.view("fc4.w").data(),
                                     f4.inFeatures, fc4Panels_.data());
    }
    staged_ = true;
}

void
FastCpuBackend::ensureStaged(const nn::ParamSet &params)
{
    // Trainers call onParamSync after every parameter sync; this
    // covers direct use (tests, benches) that skips the sync protocol,
    // and a quantized subclass, whose own sync leaves the fp32 images
    // stale: hence the non-virtual call.
    if (!staged_)
        FastCpuBackend::onParamSync(params);
}

void
FastCpuBackend::forwardConvs(const nn::ParamSet &params,
                             const tensor::Tensor &obs,
                             nn::A3cNetwork::Activations &act)
{
    act.input = obs;
    {
        KernelTimer t("conv_fw");
        nn::kernels::convForwardFast(
            net_.conv1(), act.input.data().data(),
            params.view("conv1.w"), params.view("conv1.b"),
            act.conv1Pre.data().data(), colScratch_);
    }
    nn::reluForward(act.conv1Pre, act.conv1Act);
    {
        KernelTimer t("conv_fw");
        nn::kernels::convForwardFast(
            net_.conv2(), act.conv1Act.data().data(),
            params.view("conv2.w"), params.view("conv2.b"),
            act.conv2Pre.data().data(), colScratch_);
    }
    nn::reluForward(act.conv2Pre, act.conv2Act);
    std::copy(act.conv2Act.data().begin(), act.conv2Act.data().end(),
              act.conv2Flat.data().begin());
}

void
FastCpuBackend::forward(const nn::ParamSet &params,
                        const tensor::Tensor &obs,
                        nn::A3cNetwork::Activations &act)
{
    // The batched pipeline with a batch of one, so batch/single parity
    // is structural rather than replicated.
    const tensor::Tensor *obsp[1] = {&obs};
    nn::A3cNetwork::Activations *actp[1] = {&act};
    forwardBatch(params, obsp, actp);
}

void
FastCpuBackend::forwardFc(const nn::ParamSet &params, FcLayer layer,
                          int bsz, const float *in, float *out)
{
    KernelTimer t("fc_fw");
    if (layer == FcLayer::Fc3)
        nn::kernels::fcForwardFastBatchPanels(net_.fc3(), bsz, in,
                                              fc3Panels_,
                                              params.view("fc3.b"), out);
    else if (fc4Small_)
        nn::kernels::fcForwardSmallBatch(net_.fc4(), bsz, in,
                                         params.view("fc4.w"),
                                         params.view("fc4.b"), out);
    else
        nn::kernels::fcForwardFastBatchPanels(net_.fc4(), bsz, in,
                                              fc4Panels_,
                                              params.view("fc4.b"), out);
}

void
FastCpuBackend::backward(const nn::ParamSet &params,
                         const nn::A3cNetwork::Activations &act,
                         const tensor::Tensor &g_out,
                         nn::ParamSet &grads)
{
    FA3C_PROF_SCOPE("backend.backward");
    ensureStaged(params);
    FA3C_ASSERT(g_out.numel() ==
                    static_cast<std::size_t>(net_.fc4().outFeatures),
                "FastCpuBackend backward g_out size");

    // FC4: GC then BW (the same task order as the golden network).
    {
        KernelTimer t("fc_gc");
        nn::kernels::fcGradientFast(
            net_.fc4(), act.fc3Act.data().data(), g_out.data().data(),
            grads.view("fc4.w"), grads.view("fc4.b"));
    }
    {
        KernelTimer t("fc_bw");
        nn::kernels::fcBackwardFast(net_.fc4(), g_out.data().data(),
                                    params.view("fc4.w"),
                                    gFc3Act_.data().data());
    }
    nn::reluBackward(act.fc3Pre, gFc3Act_, gFc3Pre_);

    // FC3.
    {
        KernelTimer t("fc_gc");
        nn::kernels::fcGradientFast(
            net_.fc3(), act.conv2Flat.data().data(),
            gFc3Pre_.data().data(), grads.view("fc3.w"),
            grads.view("fc3.b"));
    }
    {
        KernelTimer t("fc_bw");
        nn::kernels::fcBackwardFast(net_.fc3(), gFc3Pre_.data().data(),
                                    params.view("fc3.w"),
                                    gConv2Flat_.data().data());
    }

    // ReLU before FC3, applied on the conv2 feature map.
    std::copy(gConv2Flat_.data().begin(), gConv2Flat_.data().end(),
              gConv2Act_.data().begin());
    nn::reluBackward(act.conv2Pre, gConv2Act_, gConv2Pre_);

    // Conv2.
    {
        KernelTimer t("conv_gc");
        nn::kernels::convGradientFast(
            net_.conv2(), act.conv1Act.data().data(),
            gConv2Pre_.data().data(), grads.view("conv2.w"),
            grads.view("conv2.b"), colScratch_);
    }
    {
        KernelTimer t("conv_bw");
        nn::kernels::convBackwardFast(net_.conv2(),
                                      gConv2Pre_.data().data(), conv2WT_,
                                      gConv1Act_.data().data(),
                                      colScratch_);
    }
    nn::reluBackward(act.conv1Pre, gConv1Act_, gConv1Pre_);

    // Conv1: gradient only; BW into the game screen is not needed.
    {
        KernelTimer t("conv_gc");
        nn::kernels::convGradientFast(
            net_.conv1(), act.input.data().data(),
            gConv1Pre_.data().data(), grads.view("conv1.w"),
            grads.view("conv1.b"), colScratch_);
    }
}

void
FastCpuBackend::forwardBatch(
    const nn::ParamSet &params,
    std::span<const tensor::Tensor *const> obs,
    std::span<nn::A3cNetwork::Activations *const> acts)
{
    FA3C_PROF_SCOPE("backend.forward_batch");
    FA3C_ASSERT(obs.size() == acts.size(),
                "forwardBatch obs/acts size mismatch");
    if (obs.empty())
        return;
    ensureForwardImage(params);

    const std::size_t bsz = obs.size();
    const std::size_t in3 =
        static_cast<std::size_t>(net_.fc3().inFeatures);
    const std::size_t out3 =
        static_cast<std::size_t>(net_.fc3().outFeatures);
    const std::size_t out4 =
        static_cast<std::size_t>(net_.fc4().outFeatures);
    batchMid_.resize(bsz * out3);
    batchAct_.resize(bsz * out3);
    batchOut_.resize(bsz * out4);

    // Conv trunk per sample: conv weights are small enough to live in
    // cache across the whole batch, so there is nothing for batching
    // to amortize there — the win is all in the FC layers below. A
    // batch of one feeds FC3 straight from its conv2 map.
    const float *fcIn = acts[0]->conv2Flat.data().data();
    if (bsz > 1) {
        batchIn_.resize(bsz * in3);
        fcIn = batchIn_.data();
    }
    for (std::size_t s = 0; s < bsz; ++s) {
        forwardConvs(params, *obs[s], *acts[s]);
        if (bsz > 1)
            std::memcpy(batchIn_.data() + s * in3,
                        acts[s]->conv2Flat.data().data(),
                        in3 * sizeof(float));
    }

    // FC3 as one M = batch GEMM: the weight image is streamed once for
    // the whole batch instead of once per request, and every output
    // element accumulates in the same order whatever the batch size.
    const int m = static_cast<int>(bsz);
    forwardFc(params, FcLayer::Fc3, m, fcIn, batchMid_.data());
    for (std::size_t s = 0; s < bsz; ++s) {
        const float *pre = batchMid_.data() + s * out3;
        float *post = batchAct_.data() + s * out3;
        std::memcpy(acts[s]->fc3Pre.data().data(), pre,
                    out3 * sizeof(float));
        for (std::size_t i = 0; i < out3; ++i)
            post[i] = pre[i] > 0.0f ? pre[i] : 0.0f;
        std::memcpy(acts[s]->fc3Act.data().data(), post,
                    out3 * sizeof(float));
    }

    forwardFc(params, FcLayer::Fc4, m, batchAct_.data(),
              batchOut_.data());
    for (std::size_t s = 0; s < bsz; ++s)
        std::memcpy(acts[s]->out.data().data(),
                    batchOut_.data() + s * out4, out4 * sizeof(float));
}

std::unique_ptr<DnnBackend>
makeDnnBackend(BackendKind kind, const nn::A3cNetwork &net)
{
    switch (kind) {
    case BackendKind::Reference:
        return std::make_unique<ReferenceBackend>(net);
    case BackendKind::FastCpu:
        return std::make_unique<FastCpuBackend>(net);
    case BackendKind::Int8:
        return std::make_unique<QuantCpuBackend>(net,
                                                 nn::QuantMode::Int8);
    case BackendKind::Fp16:
        return std::make_unique<QuantCpuBackend>(net,
                                                 nn::QuantMode::Fp16);
    }
    FA3C_PANIC("unknown BackendKind ", static_cast<int>(kind));
}

BackendKind
backendKindFromName(const std::string &name)
{
    if (const auto kind = tryBackendKindFromName(name))
        return *kind;
    FA3C_PANIC("unknown backend name '", name,
               "' (want reference|fast|int8|fp16)");
}

std::optional<BackendKind>
tryBackendKindFromName(const std::string &name)
{
    if (name == "reference")
        return BackendKind::Reference;
    if (name == "fast")
        return BackendKind::FastCpu;
    if (name == "int8")
        return BackendKind::Int8;
    if (name == "fp16")
        return BackendKind::Fp16;
    return std::nullopt;
}

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Reference:
        return "reference";
    case BackendKind::FastCpu:
        return "fast";
    case BackendKind::Int8:
        return "int8";
    case BackendKind::Fp16:
        return "fp16";
    }
    return "reference";
}

} // namespace fa3c::rl
