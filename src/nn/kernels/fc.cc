#include "nn/kernels/fc.hh"

#include <algorithm>
#include <cstring>

#include "nn/kernels/dispatch.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/threadpool.hh"
#include "obs/profile.hh"
#include "sim/logging.hh"

namespace fa3c::nn::kernels {

namespace {

// Multiply-add count below which the fork-join split costs more than
// it saves; wide-net batched layers clear it, per-agent GEMVs do not.
constexpr long long kMtFlopThreshold = 1LL << 24;

} // namespace

void
fcSplitStrips(int batch, int outF, int inF, int stripWidth,
              const std::function<void(int n0, int n1)> &body)
{
    const int strips = (outF + stripWidth - 1) / stripWidth;
    const long long work = static_cast<long long>(batch) * outF * inF;
    const int nt = kernelThreads();
    if (nt <= 1 || batch < 4 || strips < 2 || work < kMtFlopThreshold) {
        body(0, outF);
        return;
    }
    const int tasks = std::min(nt, strips);
    parallelFor(tasks, [&](int t) {
        const int n0 = strips * t / tasks * stripWidth;
        const int n1 =
            std::min(strips * (t + 1) / tasks * stripWidth, outF);
        if (n1 > n0)
            body(n0, n1);
    });
}

void
fcForwardFastBatchPanels(const FcSpec &spec, int batch, const float *in,
                         std::span<const float> wPanels,
                         std::span<const float> b, float *out)
{
    FA3C_PROF_SCOPE("kernels.fc_fw_panels");
    FA3C_ASSERT(wPanels.size() ==
                    gemmPanelSize(spec.outFeatures, spec.inFeatures),
                "fcForwardFastBatchPanels wPanels");
    FA3C_ASSERT(b.size() == spec.biasCount(),
                "fcForwardFastBatchPanels b");
    const std::size_t o = static_cast<std::size_t>(spec.outFeatures);
    for (int s = 0; s < batch; ++s)
        std::memcpy(out + static_cast<std::size_t>(s) * o, b.data(),
                    o * sizeof(float));
    const std::size_t k = static_cast<std::size_t>(spec.inFeatures);
    fcSplitStrips(batch, spec.outFeatures, spec.inFeatures,
                  kGemmPanelWidth, [&](int n0, int n1) {
                      gemmAccPanels(batch, n1 - n0, spec.inFeatures, in,
                                    spec.inFeatures,
                                    wPanels.data() +
                                        static_cast<std::size_t>(n0) * k,
                                    out + n0, spec.outFeatures);
                  });
}

void
fcForwardSmallBatch(const FcSpec &spec, int batch, const float *in,
                    std::span<const float> w, std::span<const float> b,
                    float *out)
{
    FA3C_PROF_SCOPE("kernels.fc_fw_small");
    FA3C_ASSERT(w.size() == spec.weightCount(), "fcForwardSmallBatch w");
    FA3C_ASSERT(b.size() == spec.biasCount(), "fcForwardSmallBatch b");
    ops().fcDotRows(batch, spec.outFeatures, spec.inFeatures, in,
                    spec.inFeatures, w.data(), spec.inFeatures,
                    b.data(), out, spec.outFeatures);
}

void
fcBackwardFast(const FcSpec &spec, const float *g_out,
               std::span<const float> w, float *g_in)
{
    FA3C_PROF_SCOPE("kernels.fc_bw");
    FA3C_ASSERT(w.size() == spec.weightCount(), "fcBackwardFast w");
    // g_in[1][I] = g_out[1][O] * w[O][I]: the canonical layout is
    // already the right GEMM operand.
    std::fill_n(g_in, static_cast<std::size_t>(spec.inFeatures), 0.0f);
    gemmAcc(1, spec.inFeatures, spec.outFeatures, g_out,
            spec.outFeatures, w.data(), spec.inFeatures, g_in,
            spec.inFeatures);
}

void
fcGradientFast(const FcSpec &spec, const float *in, const float *g_out,
               std::span<float> g_w, std::span<float> g_b)
{
    FA3C_PROF_SCOPE("kernels.fc_gc");
    FA3C_ASSERT(g_w.size() == spec.weightCount(), "fcGradientFast g_w");
    FA3C_ASSERT(g_b.size() == spec.biasCount(), "fcGradientFast g_b");
    float *FA3C_RESTRICT gw = g_w.data();
    const float *FA3C_RESTRICT src = in;
    for (int o = 0; o < spec.outFeatures; ++o) {
        const float g = g_out[static_cast<std::size_t>(o)];
        g_b[static_cast<std::size_t>(o)] += g;
        float *FA3C_RESTRICT row =
            gw + static_cast<std::size_t>(o) *
                     static_cast<std::size_t>(spec.inFeatures);
        for (int i = 0; i < spec.inFeatures; ++i)
            row[i] += g * src[i];
    }
}

} // namespace fa3c::nn::kernels
