/**
 * @file
 * Quantized-kernel tests: the quad-interleaved int8 panel GEMM
 * against a naive integer reference, bit-identity of every SIMD
 * dispatch table (AVX2, AVX-512) against the generic one across all
 * table entries, the signed/unsigned quantizers, qdot, and the
 * IEEE-half conversion round trip.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels/dispatch.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/quant.hh"
#include "sim/rng.hh"

using namespace fa3c;
using namespace fa3c::nn::kernels;

namespace {

/** Random float matrix in [-1, 1). */
std::vector<float>
randomMatrix(std::size_t count, sim::Rng &rng)
{
    std::vector<float> m(count);
    for (auto &v : m)
        v = static_cast<float>(rng.range(-1.0, 1.0));
    return m;
}

/** Per-column inverse scales (127 / maxabs) for a row-major B[k x n]. */
std::vector<float>
columnInv(int n, int k, const std::vector<float> &b)
{
    std::vector<float> inv(static_cast<std::size_t>(n), 0.0f);
    for (int j = 0; j < n; ++j) {
        float m = 0.0f;
        for (int p = 0; p < k; ++p) {
            const float a = std::fabs(
                b[static_cast<std::size_t>(p) *
                      static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(j)]);
            if (a > m)
                m = a;
        }
        inv[static_cast<std::size_t>(j)] = m > 0.0f ? 127.0f / m : 0.0f;
    }
    return inv;
}

/** B^T of a row-major B[k x n], rows padded to stride @p ld >= k
 * (the canonical [n][k] weight rows the packers read). */
std::vector<float>
transposeOf(int n, int k, const std::vector<float> &b, int ld)
{
    std::vector<float> bt(static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(ld),
                          -9.0f);
    for (int p = 0; p < k; ++p)
        for (int j = 0; j < n; ++j)
            bt[static_cast<std::size_t>(j) * static_cast<std::size_t>(ld) +
               static_cast<std::size_t>(p)] =
                b[static_cast<std::size_t>(p) *
                      static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(j)];
    return bt;
}

/** The quantizer qgemmPackPanels applies, reproduced naively. */
std::int8_t
quantNaive(float v, float inv)
{
    long r = lrintf(v * inv);
    if (r > 127)
        r = 127;
    else if (r < -127)
        r = -127;
    return static_cast<std::int8_t>(r);
}

/** Random unsigned activation rows, zero-padded to qrowStride(k). */
std::vector<std::int8_t>
randomActRows(int m, int k, sim::Rng &rng)
{
    const std::size_t stride =
        static_cast<std::size_t>(qrowStride(k));
    std::vector<std::int8_t> a(static_cast<std::size_t>(m) * stride, 0);
    for (int i = 0; i < m; ++i)
        for (int p = 0; p < k; ++p)
            a[static_cast<std::size_t>(i) * stride +
              static_cast<std::size_t>(p)] =
                static_cast<std::int8_t>(rng.uniformInt(128));
    return a;
}

} // namespace

TEST(NnQgemm, PackAndGemmMatchNaiveIntegerReference)
{
    // Geometries chosen to exercise every padding path: k not a
    // multiple of the quad depth, n not a multiple of the strip
    // width (down to a 5-column last strip after two full ones), m
    // not a multiple of the register tile.
    const struct {
        int m, n, k;
    } cases[] = {{1, 8, 4},   {5, 8, 13},  {16, 24, 32}, {7, 11, 10},
                 {9, 40, 27}, {3, 7, 64},  {4, 37, 29}};
    sim::Rng rng(17);
    for (const auto &cs : cases) {
        const auto b = randomMatrix(static_cast<std::size_t>(cs.k) *
                                        static_cast<std::size_t>(cs.n),
                                    rng);
        const auto inv = columnInv(cs.n, cs.k, b);
        // The packers read B^T rows (padded stride, so a packer that
        // assumed ldbt == k would read the -9 filler).
        const int ldbt = cs.k + 3;
        const auto bt = transposeOf(cs.n, cs.k, b, ldbt);
        std::vector<std::int8_t> panels(qgemmPanelBytes(cs.n, cs.k));
        qgemmPackPanels(cs.n, cs.k, bt.data(), ldbt, inv.data(),
                        panels.data());

        // The image equals the quad-interleaved layout of B spelled
        // out element by element, padding bytes included.
        std::vector<std::int8_t> want(panels.size(), 0);
        const int k4 = qrowStride(cs.k) / kQuantPanelDepth;
        std::size_t at = 0;
        for (int j0 = 0; j0 < cs.n; j0 += kQuantPanelWidth)
            for (int q = 0; q < k4; ++q)
                for (int j = 0; j < kQuantPanelWidth; ++j)
                    for (int t = 0; t < kQuantPanelDepth; ++t, ++at) {
                        const int p = kQuantPanelDepth * q + t;
                        if (j0 + j < cs.n && p < cs.k)
                            want[at] = quantNaive(
                                b[static_cast<std::size_t>(p) *
                                      static_cast<std::size_t>(cs.n) +
                                  static_cast<std::size_t>(j0 + j)],
                                inv[static_cast<std::size_t>(j0 + j)]);
                    }
        ASSERT_EQ(at, panels.size());
        EXPECT_EQ(panels, want) << "n=" << cs.n << " k=" << cs.k;

        // The fp16 image has the fp32 panel geometry of B, word for
        // word the half of each fp32 panel word (0 in the padding).
        std::vector<float> fpanels(gemmPanelSize(cs.n, cs.k));
        gemmPackPanels(cs.n, cs.k, b.data(), cs.n, fpanels.data());
        std::vector<std::uint16_t> hpanels(halfPanelSize(cs.n, cs.k));
        halfPackPanels(cs.n, cs.k, bt.data(), ldbt, hpanels.data());
        ASSERT_EQ(hpanels.size(), fpanels.size());
        for (std::size_t i = 0; i < hpanels.size(); ++i)
            ASSERT_EQ(hpanels[i], floatToHalf(fpanels[i]))
                << "n=" << cs.n << " k=" << cs.k << " word " << i;

        const auto a = randomActRows(cs.m, cs.k, rng);
        const int lda = qrowStride(cs.k);
        std::vector<std::int32_t> c(static_cast<std::size_t>(cs.m) *
                                        static_cast<std::size_t>(cs.n),
                                    0);
        qgemmAccPanels(cs.m, cs.n, cs.k, a.data(), lda, panels.data(),
                       c.data(), cs.n);

        for (int i = 0; i < cs.m; ++i) {
            for (int j = 0; j < cs.n; ++j) {
                std::int32_t want = 0;
                for (int p = 0; p < cs.k; ++p)
                    want +=
                        static_cast<std::int32_t>(
                            a[static_cast<std::size_t>(i) *
                                  static_cast<std::size_t>(lda) +
                              static_cast<std::size_t>(p)]) *
                        quantNaive(
                            b[static_cast<std::size_t>(p) *
                                  static_cast<std::size_t>(cs.n) +
                              static_cast<std::size_t>(j)],
                            inv[static_cast<std::size_t>(j)]);
                EXPECT_EQ(c[static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(cs.n) +
                            static_cast<std::size_t>(j)],
                          want)
                    << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
                    << " at (" << i << "," << j << ")";
            }
        }
    }
}

TEST(NnQgemm, SimdTablesBitIdenticalToGeneric)
{
    const KernelOps *gen = genericOps();
    ASSERT_NE(gen, nullptr);
    const KernelOps *simd[] = {avx2Ops(), avx512Ops()};
    bool compared_any = false;

    // Geometry chosen to hit every tile height (including the MR=8
    // rows of the AVX-512 tier), full strips, and tail columns of
    // both the 32-column fp32/fp16 panels and the 16-column int8
    // panels.
    sim::Rng rng(23);
    const int m = 18, n = 70, k = 33;
    const auto a32 = randomMatrix(static_cast<std::size_t>(m) *
                                      static_cast<std::size_t>(k),
                                  rng);
    const auto b = randomMatrix(static_cast<std::size_t>(k) *
                                    static_cast<std::size_t>(n),
                                rng);
    const auto bias = randomMatrix(static_cast<std::size_t>(n), rng);
    std::vector<float> fpanels(gemmPanelSize(n, k));
    gemmPackPanels(n, k, b.data(), n, fpanels.data());
    const auto bt = transposeOf(n, k, b, k);
    std::vector<std::uint16_t> hpanels(halfPanelSize(n, k));
    halfPackPanels(n, k, bt.data(), k, hpanels.data());
    const auto inv = columnInv(n, k, b);
    std::vector<std::int8_t> qpanels(qgemmPanelBytes(n, k));
    qgemmPackPanels(n, k, bt.data(), k, inv.data(), qpanels.data());
    const auto a8 = randomActRows(m, k, rng);
    const int lda8 = qrowStride(k);

    // Quantizer input long enough to hit the vector body plus a
    // scalar tail, with values straddling every clamp edge.
    std::vector<float> x(71);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.range(-300.0, 300.0));
    x[0] = -500.0f; // below both clamps
    x[1] = 500.0f;  // above both clamps
    x[2] = 2.5f;    // rne tie -> 2
    x[3] = 3.5f;    // rne tie -> 4

    const std::size_t cn =
        static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
    for (const KernelOps *isa : simd) {
        if (!isa)
            continue;
        compared_any = true;

        std::vector<float> c_gen(cn, 0.25f), c_isa(cn, 0.25f);
        gen->gemmAcc(m, n, k, a32.data(), k, b.data(), n, c_gen.data(),
                     n);
        isa->gemmAcc(m, n, k, a32.data(), k, b.data(), n, c_isa.data(),
                     n);
        EXPECT_EQ(c_gen, c_isa) << isa->name << " gemmAcc";

        std::fill(c_gen.begin(), c_gen.end(), -0.5f);
        std::fill(c_isa.begin(), c_isa.end(), -0.5f);
        gen->gemmAccPanels(m, n, k, a32.data(), k, fpanels.data(),
                           c_gen.data(), n);
        isa->gemmAccPanels(m, n, k, a32.data(), k, fpanels.data(),
                           c_isa.data(), n);
        EXPECT_EQ(c_gen, c_isa) << isa->name << " gemmAccPanels";

        std::fill(c_gen.begin(), c_gen.end(), 0.0f);
        std::fill(c_isa.begin(), c_isa.end(), 0.0f);
        gen->hgemmAccPanels(m, n, k, a32.data(), k, hpanels.data(),
                            c_gen.data(), n);
        isa->hgemmAccPanels(m, n, k, a32.data(), k, hpanels.data(),
                            c_isa.data(), n);
        EXPECT_EQ(c_gen, c_isa) << isa->name << " hgemmAccPanels";

        gen->fcDotRows(m, n, k, a32.data(), k, b.data(), k,
                       bias.data(), c_gen.data(), n);
        isa->fcDotRows(m, n, k, a32.data(), k, b.data(), k,
                       bias.data(), c_isa.data(), n);
        EXPECT_EQ(c_gen, c_isa) << isa->name << " fcDotRows";

        std::vector<std::int32_t> q_gen(cn, 0), q_isa(cn, 0);
        gen->qgemmAccPanels(m, n, k, a8.data(), lda8, qpanels.data(),
                            q_gen.data(), n);
        isa->qgemmAccPanels(m, n, k, a8.data(), lda8, qpanels.data(),
                            q_isa.data(), n);
        EXPECT_EQ(q_gen, q_isa) << isa->name << " qgemmAccPanels";

        EXPECT_EQ(gen->qdot(lda8, a8.data(), a8.data() + lda8),
                  isa->qdot(lda8, a8.data(), a8.data() + lda8))
            << isa->name << " qdot";

        std::vector<std::int8_t> r_gen(x.size()), r_isa(x.size());
        gen->quantizeRow(static_cast<int>(x.size()), x.data(), 1.0f,
                         r_gen.data());
        isa->quantizeRow(static_cast<int>(x.size()), x.data(), 1.0f,
                         r_isa.data());
        EXPECT_EQ(r_gen, r_isa) << isa->name << " quantizeRow";
        gen->quantizeRowU(static_cast<int>(x.size()), x.data(), 1.0f,
                          r_gen.data());
        isa->quantizeRowU(static_cast<int>(x.size()), x.data(), 1.0f,
                          r_isa.data());
        EXPECT_EQ(r_gen, r_isa) << isa->name << " quantizeRowU";
    }
    if (!compared_any)
        GTEST_SKIP() << "no SIMD table built on this toolchain";
}

TEST(NnQgemm, QuantizeRowVariantsClampAndRound)
{
    const float x[] = {-500.0f, -1.0f, -0.4f, 0.0f, 0.5f,
                       1.5f,    2.5f,  126.6f, 500.0f};
    std::int8_t qs[9], qu[9];
    quantizeRow(9, x, 1.0f, qs);
    quantizeRowU(9, x, 1.0f, qu);

    const std::int8_t want_s[] = {-127, -1, 0, 0, 0, 2, 2, 127, 127};
    const std::int8_t want_u[] = {0, 0, 0, 0, 0, 2, 2, 127, 127};
    for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(qs[i], want_s[i]) << "signed at " << i;
        EXPECT_EQ(qu[i], want_u[i]) << "unsigned at " << i;
    }
}

TEST(NnQgemm, HalfConversionRoundTripsEveryFiniteValue)
{
    // half -> float is exact, so float -> half must return the
    // original bits for every finite half (including subnormals and
    // both zeros).
    for (std::uint32_t bits = 0; bits < 0x10000u; ++bits) {
        const auto h = static_cast<std::uint16_t>(bits);
        if (((h >> 10) & 0x1fu) == 0x1fu)
            continue; // inf/NaN payloads are canonicalized, not kept
        EXPECT_EQ(floatToHalf(halfToFloat(h)), h) << "bits " << bits;
    }
    EXPECT_EQ(halfToFloat(floatToHalf(1.0f)), 1.0f);
    EXPECT_EQ(halfToFloat(floatToHalf(-0.09375f)), -0.09375f);
    // Overflow saturates to infinity, underflow to zero.
    EXPECT_EQ(floatToHalf(1e6f), 0x7c00u);
    EXPECT_EQ(floatToHalf(-1e6f), 0xfc00u);
    EXPECT_EQ(floatToHalf(1e-10f), 0u);
}
