#include "rl/quant_backend.hh"

#include <algorithm>

#include "nn/kernels/fc.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/im2col.hh"
#include "nn/kernels/quant.hh"
#include "obs/profile.hh"
#include "sim/logging.hh"

namespace fa3c::rl {

namespace {

/** Dynamic per-tensor activation scale (dequant sx, inverse 127/m). */
struct ActScale
{
    float sx;
    float inv;
};

ActScale
actScale(const float *x, std::size_t n)
{
    const float m = nn::kernels::rowMaxAbs(x, n);
    return {m / 127.0f, m > 0.0f ? 127.0f / m : 0.0f};
}

} // namespace

QuantCpuBackend::QuantCpuBackend(const nn::A3cNetwork &net,
                                 nn::QuantMode mode)
    : FastCpuBackend(net), mode_(mode)
{
}

void
QuantCpuBackend::onParamSync(const nn::ParamSet &params)
{
    FA3C_PROF_SCOPE("backend.quant_sync");
    // The fp32 training images go stale; the base restages them
    // lazily if backward() is ever called.
    staged_ = false;
    quant_ = std::make_shared<const nn::QuantizedModel>(
        nn::quantizeModel(net_, params, mode_));
}

void
QuantCpuBackend::onQuantSync(
    const nn::ParamSet &params,
    std::shared_ptr<const nn::QuantizedModel> quant)
{
    if (!quant || quant->mode != mode_) {
        // The publisher built a different variant (or none): derive
        // the image locally like a trainer would.
        onParamSync(params);
        return;
    }
    FA3C_PROF_SCOPE("backend.quant_sync");
    staged_ = false;
    quant_ = std::move(quant);
}

void
QuantCpuBackend::ensureForwardImage(const nn::ParamSet &params)
{
    if (!quant_)
        onParamSync(params);
}

void
QuantCpuBackend::convLayerInt8(const nn::ConvSpec &spec,
                               const nn::QuantizedModel::Int8Panels &qw,
                               std::span<const float> bias,
                               const float *in, float *outPre)
{
    KernelTimer t("conv_fw_q8");
    const int O = spec.outChannels;
    const int pos = static_cast<int>(nn::kernels::patchCount(spec));
    const int taps = static_cast<int>(nn::kernels::patchSize(spec));
    const std::size_t inCount = static_cast<std::size_t>(spec.inChannels) *
                                static_cast<std::size_t>(spec.inHeight) *
                                static_cast<std::size_t>(spec.inWidth);

    const ActScale s = actScale(in, inCount);
    img8_.resize(inCount);
    nn::kernels::quantizeRowU(static_cast<int>(inCount), in, s.inv,
                              img8_.data());

    const std::size_t stride =
        static_cast<std::size_t>(nn::kernels::qrowStride(taps));
    rows8_.resize(static_cast<std::size_t>(pos) * stride);
    nn::kernels::im2row8(spec, img8_.data(), rows8_.data());

    // acc[pos][O] = rows8 * wT panels, exact int32.
    acc32_.assign(static_cast<std::size_t>(pos) *
                      static_cast<std::size_t>(O),
                  0);
    nn::kernels::qgemmAccPanels(pos, O, taps, rows8_.data(),
                                static_cast<int>(stride),
                                qw.panels.data(), acc32_.data(), O);

    // Dequantize and transpose to the canonical [O][OH*OW] map.
    for (int o = 0; o < O; ++o) {
        const float so = qw.scale[static_cast<std::size_t>(o)] * s.sx;
        const float bo = bias[static_cast<std::size_t>(o)];
        float *dst = outPre + static_cast<std::size_t>(o) *
                                  static_cast<std::size_t>(pos);
        for (int p = 0; p < pos; ++p)
            dst[p] =
                static_cast<float>(
                    acc32_[static_cast<std::size_t>(p) *
                               static_cast<std::size_t>(O) +
                           static_cast<std::size_t>(o)]) *
                    so +
                bo;
    }
}

void
QuantCpuBackend::forwardConvs(const nn::ParamSet &params,
                              const tensor::Tensor &obs,
                              nn::A3cNetwork::Activations &act)
{
    if (mode_ == nn::QuantMode::Fp16) {
        // Fp16 mode keeps the conv trunk fp32: conv weights are a few
        // KB, so halving their storage buys nothing, and the fp32
        // trunk preserves feature-map fidelity for free.
        FastCpuBackend::forwardConvs(params, obs, act);
        return;
    }
    act.input = obs;
    convLayerInt8(net_.conv1(), quant_->conv1, params.view("conv1.b"),
                  act.input.data().data(), act.conv1Pre.data().data());
    nn::reluForward(act.conv1Pre, act.conv1Act);
    convLayerInt8(net_.conv2(), quant_->conv2, params.view("conv2.b"),
                  act.conv1Act.data().data(),
                  act.conv2Pre.data().data());
    nn::reluForward(act.conv2Pre, act.conv2Act);
    std::copy(act.conv2Act.data().begin(), act.conv2Act.data().end(),
              act.conv2Flat.data().begin());
}

void
QuantCpuBackend::fcBatchInt8(const nn::FcSpec &spec,
                             const nn::QuantizedModel::Int8Panels &qw,
                             std::span<const float> bias, int bsz,
                             const float *in, float *out)
{
    KernelTimer t("fc_fw_q8");
    const int inF = spec.inFeatures;
    const int outF = spec.outFeatures;
    const std::size_t stride =
        static_cast<std::size_t>(nn::kernels::qrowStride(inF));

    // Quantize every activation row (zero-padded to the quad stride).
    qrows_.assign(static_cast<std::size_t>(bsz) * stride, 0);
    sx_.resize(static_cast<std::size_t>(bsz));
    for (int s = 0; s < bsz; ++s) {
        const float *row =
            in + static_cast<std::size_t>(s) *
                     static_cast<std::size_t>(inF);
        const ActScale sc =
            actScale(row, static_cast<std::size_t>(inF));
        sx_[static_cast<std::size_t>(s)] = sc.sx;
        nn::kernels::quantizeRowU(inF, row, sc.inv,
                                  qrows_.data() +
                                      static_cast<std::size_t>(s) *
                                          stride);
    }

    acc32_.assign(static_cast<std::size_t>(bsz) *
                      static_cast<std::size_t>(outF),
                  0);

    // One M = batch qgemm, split by panel strips across the pool when
    // the layer is wide enough. Integer accumulation is exact, so the
    // split never changes results.
    nn::kernels::fcSplitStrips(
        bsz, outF, inF, nn::kernels::kQuantPanelWidth,
        [&](int n0, int n1) {
            nn::kernels::qgemmAccPanels(
                bsz, n1 - n0, inF, qrows_.data(),
                static_cast<int>(stride),
                qw.panels.data() + static_cast<std::size_t>(n0) * stride,
                acc32_.data() + n0, outF);
        });

    for (int s = 0; s < bsz; ++s) {
        const float sxs = sx_[static_cast<std::size_t>(s)];
        const std::int32_t *acc =
            acc32_.data() + static_cast<std::size_t>(s) *
                                static_cast<std::size_t>(outF);
        float *dst = out + static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(outF);
        for (int o = 0; o < outF; ++o)
            dst[o] = static_cast<float>(acc[o]) *
                         (qw.scale[static_cast<std::size_t>(o)] * sxs) +
                     bias[static_cast<std::size_t>(o)];
    }
}

void
QuantCpuBackend::fcSmallInt8(const nn::FcSpec &spec,
                             const nn::QuantizedModel::Int8Rows &qw,
                             std::span<const float> bias, int bsz,
                             const float *in, float *out)
{
    KernelTimer t("fc_fw_q8");
    const int inF = spec.inFeatures;
    const int outF = spec.outFeatures;
    const std::size_t stride =
        static_cast<std::size_t>(nn::kernels::qrowStride(inF));

    qrows_.assign(static_cast<std::size_t>(bsz) * stride, 0);
    for (int s = 0; s < bsz; ++s) {
        const float *row =
            in + static_cast<std::size_t>(s) *
                     static_cast<std::size_t>(inF);
        const ActScale sc =
            actScale(row, static_cast<std::size_t>(inF));
        std::int8_t *qrow =
            qrows_.data() + static_cast<std::size_t>(s) * stride;
        nn::kernels::quantizeRowU(inF, row, sc.inv, qrow);
        float *dst = out + static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(outF);
        for (int o = 0; o < outF; ++o) {
            const std::int32_t acc = nn::kernels::qdot(
                static_cast<int>(stride), qrow,
                qw.rows.data() + static_cast<std::size_t>(o) * stride);
            dst[o] =
                static_cast<float>(acc) *
                    (qw.scale[static_cast<std::size_t>(o)] * sc.sx) +
                bias[static_cast<std::size_t>(o)];
        }
    }
}

void
QuantCpuBackend::fcBatchHalf(const nn::FcSpec &spec,
                             const std::vector<std::uint16_t> &panels,
                             std::span<const float> bias, int bsz,
                             const float *in, float *out)
{
    KernelTimer t("fc_fw_h16");
    const int inF = spec.inFeatures;
    const int outF = spec.outFeatures;

    for (int s = 0; s < bsz; ++s) {
        float *dst = out + static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(outF);
        for (int o = 0; o < outF; ++o)
            dst[o] = bias[static_cast<std::size_t>(o)];
    }

    // Same strip split as the fp32 panel GEMM; the half loads are
    // exact, so this stays bit-identical across thread counts too.
    nn::kernels::fcSplitStrips(
        bsz, outF, inF, nn::kernels::kGemmPanelWidth,
        [&](int n0, int n1) {
            nn::kernels::hgemmAccPanels(
                bsz, n1 - n0, inF, in, inF,
                panels.data() + static_cast<std::size_t>(n0) *
                                    static_cast<std::size_t>(inF),
                out + n0, outF);
        });
}

void
QuantCpuBackend::forwardFc(const nn::ParamSet &params, FcLayer layer,
                           int bsz, const float *in, float *out)
{
    const nn::QuantizedModel &q = *quant_;
    const bool fc3 = layer == FcLayer::Fc3;
    if (!fc3 && q.fc4Small && mode_ == nn::QuantMode::Fp16) {
        // The head is tiny: in fp16 mode it is not worth a quantized
        // image at all, so it runs the fp32 small-FC dot kernel off
        // the canonical weights.
        FastCpuBackend::forwardFc(params, layer, bsz, in, out);
        return;
    }
    const nn::FcSpec &spec = fc3 ? net_.fc3() : net_.fc4();
    const auto bias = params.view(fc3 ? "fc3.b" : "fc4.b");
    if (mode_ == nn::QuantMode::Fp16)
        fcBatchHalf(spec, fc3 ? q.fc3Half : q.fc4Half, bias, bsz, in,
                    out);
    else if (!fc3 && q.fc4Small)
        fcSmallInt8(spec, q.fc4Rows, bias, bsz, in, out);
    else
        fcBatchInt8(spec, fc3 ? q.fc3 : q.fc4, bias, bsz, in, out);
}

} // namespace fa3c::rl
