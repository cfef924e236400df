/**
 * @file
 * Parity tests of the fast kernel library (nn/kernels/) against the
 * golden layer implementations in nn/layers.cc, across the shape zoo —
 * which includes the exact A3C geometries (8x8 stride 4, 4x4 stride 2),
 * 1x1 kernels, stride > kernel, non-square inputs, and single-channel
 * inputs. The tolerances are ULP-bounded with an absolute fallback for
 * near-zero elements; kernels that accumulate in the golden order
 * (forward, fc backward/gradient) are held to a tight bound; the two
 * that reassociate get a looser one (conv backward's col2im scatter
 * regroups the per-tap sums, and conv gradient folds the GEMM terms
 * into the accumulator one at a time where the golden loop buffers a
 * local sum and adds it once).
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels/conv.hh"
#include "nn/kernels/fc.hh"
#include "nn/kernels/gemm.hh"
#include "nn/a3c_network.hh"
#include "nn/kernels/im2col.hh"
#include "nn/layers.hh"
#include "sim/rng.hh"
#include "tensor/tensor.hh"
#include "test_util.hh"

using namespace fa3c;
using namespace fa3c::nn;
using namespace fa3c::test;

namespace {

/** Same-accumulation-order kernels: tiny slack for FMA contraction
 * differences between the two loop structures. */
constexpr std::uint64_t kTightUlp = 4;
constexpr float kTightAbs = 1e-7f;

/** Reassociating kernels (conv backward sums the same terms in a
 * different grouping). */
constexpr std::uint64_t kLooseUlp = 256;
constexpr float kLooseAbs = 1e-5f;

tensor::Tensor
convInput(const ConvSpec &spec, sim::Rng &rng)
{
    tensor::Tensor in(tensor::Shape(
        {spec.inChannels, spec.inHeight, spec.inWidth}));
    randomize(in, rng);
    return in;
}

tensor::Tensor
convOutput(const ConvSpec &spec)
{
    return tensor::Tensor(tensor::Shape(
        {spec.outChannels, spec.outHeight(), spec.outWidth()}));
}

} // namespace

TEST(NnKernels, TransposeRoundTrips)
{
    sim::Rng rng(11);
    std::vector<float> src(37 * 53), t(src.size()), back(src.size());
    randomize(std::span<float>(src), rng);
    kernels::transpose(src.data(), 37, 53, t.data());
    kernels::transpose(t.data(), 53, 37, back.data());
    EXPECT_EQ(src, back);
    // Spot-check the layout, not just the involution.
    EXPECT_EQ(t[5 * 37 + 3], src[3 * 53 + 5]);
}

TEST(NnKernels, ConvForwardMatchesGolden)
{
    sim::Rng rng(21);
    for (const ConvSpec &spec : convSpecZoo()) {
        tensor::Tensor in = convInput(spec, rng);
        std::vector<float> w(spec.weightCount()), b(spec.biasCount());
        randomize(std::span<float>(w), rng);
        randomize(std::span<float>(b), rng);

        tensor::Tensor golden = convOutput(spec);
        convForward(spec, in, w, b, golden);

        tensor::Tensor fast = convOutput(spec);
        std::vector<float> scratch(kernels::colSize(spec));
        kernels::convForwardFast(spec, in.data().data(), w, b,
                                 fast.data().data(), scratch);
        expectAllClose(fast.data(), golden.data(), kTightUlp, kTightAbs,
                       "conv forward");
    }
}

TEST(NnKernels, ConvBackwardMatchesGolden)
{
    sim::Rng rng(22);
    for (const ConvSpec &spec : convSpecZoo()) {
        std::vector<float> w(spec.weightCount());
        randomize(std::span<float>(w), rng);
        tensor::Tensor g_out = convOutput(spec);
        randomize(g_out, rng);

        tensor::Tensor golden(tensor::Shape(
            {spec.inChannels, spec.inHeight, spec.inWidth}));
        convBackward(spec, g_out, w, golden);

        std::vector<float> wT(spec.weightCount());
        kernels::transpose(w.data(), spec.outChannels,
                           static_cast<int>(kernels::patchSize(spec)),
                           wT.data());
        tensor::Tensor fast(golden.shape());
        std::vector<float> scratch(kernels::colSize(spec));
        kernels::convBackwardFast(spec, g_out.data().data(), wT,
                                  fast.data().data(), scratch);
        expectAllClose(fast.data(), golden.data(), kLooseUlp, kLooseAbs,
                       "conv backward");
    }
}

TEST(NnKernels, ConvGradientMatchesGoldenAndAccumulates)
{
    sim::Rng rng(23);
    for (const ConvSpec &spec : convSpecZoo()) {
        tensor::Tensor in = convInput(spec, rng);
        tensor::Tensor g_out = convOutput(spec);
        randomize(g_out, rng);

        // Both paths accumulate on top of the same nonzero baseline.
        std::vector<float> base_w(spec.weightCount());
        std::vector<float> base_b(spec.biasCount());
        randomize(std::span<float>(base_w), rng);
        randomize(std::span<float>(base_b), rng);

        std::vector<float> gw_golden = base_w, gb_golden = base_b;
        convGradient(spec, in, g_out, gw_golden, gb_golden);

        std::vector<float> gw_fast = base_w, gb_fast = base_b;
        std::vector<float> scratch(kernels::colSize(spec));
        kernels::convGradientFast(spec, in.data().data(),
                                  g_out.data().data(), gw_fast, gb_fast,
                                  scratch);
        expectAllClose(gw_fast, gw_golden, kLooseUlp, kLooseAbs,
                       "conv gradient w");
        expectAllClose(gb_fast, gb_golden, kLooseUlp, kLooseAbs,
                       "conv gradient b");
    }
}

namespace {

/** gemmPackPanelsT image of the canonical w[O][I] (the FC B operand). */
std::vector<float>
fcPanels(const FcSpec &spec, const std::vector<float> &w)
{
    std::vector<float> panels(
        kernels::gemmPanelSize(spec.outFeatures, spec.inFeatures));
    kernels::gemmPackPanelsT(spec.outFeatures, spec.inFeatures, w.data(),
                             spec.inFeatures, panels.data());
    return panels;
}

} // namespace

TEST(NnKernels, FcForwardMatchesGolden)
{
    sim::Rng rng(24);
    for (const FcSpec &spec : fcSpecZoo()) {
        tensor::Tensor in(tensor::Shape({spec.inFeatures}));
        randomize(in, rng);
        std::vector<float> w(spec.weightCount()), b(spec.biasCount());
        randomize(std::span<float>(w), rng);
        randomize(std::span<float>(b), rng);

        tensor::Tensor golden(tensor::Shape({spec.outFeatures}));
        fcForward(spec, in, w, b, golden);

        tensor::Tensor fast(golden.shape());
        kernels::fcForwardFastBatchPanels(spec, 1, in.data().data(),
                                          fcPanels(spec, w), b,
                                          fast.data().data());
        expectAllClose(fast.data(), golden.data(), kTightUlp, kTightAbs,
                       "fc forward");
    }
}

TEST(NnKernels, FcForwardBatchBitExactWithSingle)
{
    sim::Rng rng(25);
    // 67 outputs: two full panel strips and a 3-column tail.
    const FcSpec spec{23, 67};
    const int batch = 7;
    std::vector<float> w(spec.weightCount()), b(spec.biasCount());
    randomize(std::span<float>(w), rng);
    randomize(std::span<float>(b), rng);
    const std::vector<float> panels = fcPanels(spec, w);
    std::vector<float> wT(spec.weightCount());
    kernels::transpose(w.data(), spec.outFeatures, spec.inFeatures,
                       wT.data());

    std::vector<float> in(static_cast<std::size_t>(batch) *
                          static_cast<std::size_t>(spec.inFeatures));
    randomize(std::span<float>(in), rng);

    std::vector<float> batched(static_cast<std::size_t>(batch) *
                               static_cast<std::size_t>(
                                   spec.outFeatures));
    kernels::fcForwardFastBatchPanels(spec, batch, in.data(), panels, b,
                                      batched.data());

    // The batched GEMM must accumulate each output element in exactly
    // the per-sample order: results are bit-identical, not just close.
    // The single-sample call is also held to the plain M = 1 GEMM over
    // a row-major transpose, the unpacked form of the same sum.
    std::vector<float> single(static_cast<std::size_t>(
        spec.outFeatures));
    std::vector<float> plain(single.size());
    for (int s = 0; s < batch; ++s) {
        const float *row =
            in.data() + static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(spec.inFeatures);
        kernels::fcForwardFastBatchPanels(spec, 1, row, panels, b,
                                          single.data());
        plain = b;
        kernels::gemmAcc(1, spec.outFeatures, spec.inFeatures, row,
                         spec.inFeatures, wT.data(), spec.outFeatures,
                         plain.data(), spec.outFeatures);
        EXPECT_EQ(single, plain) << "sample " << s;
        for (int o = 0; o < spec.outFeatures; ++o)
            EXPECT_EQ(single[static_cast<std::size_t>(o)],
                      batched[static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(
                                      spec.outFeatures) +
                              static_cast<std::size_t>(o)])
                << "sample " << s << " output " << o;
    }
}

TEST(NnKernels, PackPanelsTMatchesPackOfTranspose)
{
    sim::Rng rng(26);
    // n = 70 leaves a 6-column last strip, and the row stride of the
    // source exceeds k.
    const int n = 70;
    const int k = 131;
    const int ldbt = k + 5;
    std::vector<float> bt(static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(ldbt));
    randomize(std::span<float>(bt), rng);
    std::vector<float> b(static_cast<std::size_t>(k) *
                         static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
        for (int p = 0; p < k; ++p)
            b[static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(j)] =
                bt[static_cast<std::size_t>(j) *
                       static_cast<std::size_t>(ldbt) +
                   static_cast<std::size_t>(p)];

    // Both start from garbage so the zero padding is checked too.
    std::vector<float> want(kernels::gemmPanelSize(n, k), -7.0f);
    std::vector<float> got(want.size(), 9.0f);
    kernels::gemmPackPanels(n, k, b.data(), n, want.data());
    kernels::gemmPackPanelsT(n, k, bt.data(), ldbt, got.data());
    EXPECT_EQ(got, want);
}

TEST(NnKernels, FcBackwardMatchesGolden)
{
    sim::Rng rng(26);
    for (const FcSpec &spec : fcSpecZoo()) {
        std::vector<float> w(spec.weightCount());
        randomize(std::span<float>(w), rng);
        tensor::Tensor g_out(tensor::Shape({spec.outFeatures}));
        randomize(g_out, rng);

        tensor::Tensor golden(tensor::Shape({spec.inFeatures}));
        fcBackward(spec, g_out, w, golden);

        tensor::Tensor fast(golden.shape());
        kernels::fcBackwardFast(spec, g_out.data().data(), w,
                                fast.data().data());
        expectAllClose(fast.data(), golden.data(), kTightUlp, kTightAbs,
                       "fc backward");
    }
}

TEST(NnKernels, FcGradientMatchesGoldenAndAccumulates)
{
    sim::Rng rng(27);
    for (const FcSpec &spec : fcSpecZoo()) {
        tensor::Tensor in(tensor::Shape({spec.inFeatures}));
        randomize(in, rng);
        tensor::Tensor g_out(tensor::Shape({spec.outFeatures}));
        randomize(g_out, rng);

        std::vector<float> base_w(spec.weightCount());
        std::vector<float> base_b(spec.biasCount());
        randomize(std::span<float>(base_w), rng);
        randomize(std::span<float>(base_b), rng);

        std::vector<float> gw_golden = base_w, gb_golden = base_b;
        fcGradient(spec, in, g_out, gw_golden, gb_golden);

        std::vector<float> gw_fast = base_w, gb_fast = base_b;
        kernels::fcGradientFast(spec, in.data().data(),
                                g_out.data().data(), gw_fast, gb_fast);
        expectAllClose(gw_fast, gw_golden, kTightUlp, kTightAbs,
                       "fc gradient w");
        expectAllClose(gb_fast, gb_golden, kTightUlp, kTightAbs,
                       "fc gradient b");
    }
}

TEST(NnKernels, Im2colMatchesNaiveReference)
{
    // Both A3C convs, both tiny-net convs, a stride-1 case and an
    // odd-width one: the row-order lowering must reproduce the
    // per-element definition byte for byte.
    const A3cNetwork tiny(NetConfig::tiny(4));
    const std::vector<ConvSpec> specs = {
        {4, 84, 84, 16, 8, 4}, {16, 20, 20, 32, 4, 2},
        tiny.conv1(),          tiny.conv2(),
        {3, 10, 10, 5, 3, 1},  {2, 9, 13, 4, 3, 2},
    };
    sim::Rng rng(27);
    for (const ConvSpec &spec : specs) {
        const tensor::Tensor in = convInput(spec, rng);
        const std::size_t n = kernels::patchCount(spec);
        std::vector<float> want(kernels::colSize(spec));
        std::size_t row = 0;
        for (int i = 0; i < spec.inChannels; ++i)
            for (int kr = 0; kr < spec.kernel; ++kr)
                for (int kc = 0; kc < spec.kernel; ++kc, ++row)
                    for (int r = 0; r < spec.outHeight(); ++r)
                        for (int c = 0; c < spec.outWidth(); ++c)
                            want[row * n +
                                 static_cast<std::size_t>(
                                     r * spec.outWidth() + c)] =
                                in.at(i, r * spec.stride + kr,
                                      c * spec.stride + kc);
        std::vector<float> got(want.size(), -1.0f);
        kernels::im2col(spec, in.data().data(), got.data());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(float)))
            << spec.inChannels << "x" << spec.inHeight << "x"
            << spec.inWidth << " k" << spec.kernel << " s"
            << spec.stride;
    }
}

TEST(NnKernels, Im2colLaysOutPatchesByTap)
{
    // A hand-checkable 1-channel case: 3x3 input, 2x2 kernel, stride 1
    // gives 4 patches of 4 taps.
    const ConvSpec spec{1, 3, 3, 1, 2, 1};
    tensor::Tensor in(tensor::Shape({1, 3, 3}));
    for (int i = 0; i < 9; ++i)
        in.data()[static_cast<std::size_t>(i)] =
            static_cast<float>(i + 1);
    std::vector<float> col(kernels::colSize(spec));
    kernels::im2col(spec, in.data().data(), col.data());
    // Rows are taps (kr, kc), columns are output positions row-major.
    const std::vector<float> expect = {
        1, 2, 4, 5, // tap (0,0)
        2, 3, 5, 6, // tap (0,1)
        4, 5, 7, 8, // tap (1,0)
        5, 6, 8, 9, // tap (1,1)
    };
    EXPECT_EQ(col, expect);

    std::vector<float> rows(kernels::colSize(spec));
    kernels::im2row(spec, in.data().data(), rows.data());
    const std::vector<float> expect_rows = {
        1, 2, 4, 5, // patch at (0,0)
        2, 3, 5, 6, // patch at (0,1)
        4, 5, 7, 8, // patch at (1,0)
        5, 6, 8, 9, // patch at (1,1)
    };
    EXPECT_EQ(rows, expect_rows);
}
