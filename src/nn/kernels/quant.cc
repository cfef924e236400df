#include "nn/kernels/quant.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels/dispatch.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/im2col.hh"

namespace fa3c::nn::kernels {

float
rowMaxAbs(const float *x, std::size_t n)
{
    float m = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        const float a = std::fabs(x[i]);
        if (a > m)
            m = a;
    }
    return m;
}

void
quantizeRow(int n, const float *x, float inv, std::int8_t *q)
{
    ops().quantizeRow(n, x, inv, q);
}

void
quantizeRowU(int n, const float *x, float inv, std::int8_t *q)
{
    ops().quantizeRowU(n, x, inv, q);
}

std::size_t
qgemmPanelBytes(int n, int k)
{
    const std::size_t strips =
        (static_cast<std::size_t>(n) + kQuantPanelWidth - 1) /
        kQuantPanelWidth;
    const std::size_t k4 =
        (static_cast<std::size_t>(k) + kQuantPanelDepth - 1) /
        kQuantPanelDepth;
    return strips * k4 * kQuantPanelDepth * kQuantPanelWidth;
}

void
qgemmPackPanels(int n, int k, const float *bt, int ldbt,
                const float *colInv, std::int8_t *panels)
{
    const int k4 = (k + kQuantPanelDepth - 1) / kQuantPanelDepth;
    const std::size_t panelBytes = static_cast<std::size_t>(k4) *
                                   kQuantPanelDepth * kQuantPanelWidth;
    const std::size_t ld = static_cast<std::size_t>(ldbt);
    // Packing is a cold path (once per parameter publish), so the
    // scalar rne+clamp here is fine; it matches quantizeRow exactly.
    const auto q8 = [](float v, float inv1) {
        long r = lrintf(v * inv1);
        if (r > 127)
            r = 127;
        else if (r < -127)
            r = -127;
        return static_cast<std::int8_t>(r);
    };
    // Each panel row reads one quad from each of the strip's source
    // rows; those cache lines then serve the following quads from L1.
    for (int j0 = 0; j0 < n; j0 += kQuantPanelWidth) {
        const int w = std::min(kQuantPanelWidth, n - j0);
        const float *src = bt + static_cast<std::size_t>(j0) * ld;
        std::int8_t *dst =
            panels +
            static_cast<std::size_t>(j0 / kQuantPanelWidth) * panelBytes;
        for (int q = 0; q < k4; ++q) {
            for (int j = 0; j < kQuantPanelWidth; ++j) {
                for (int t = 0; t < kQuantPanelDepth; ++t) {
                    const int p = kQuantPanelDepth * q + t;
                    *dst++ = (j < w && p < k)
                                 ? q8(src[static_cast<std::size_t>(j) *
                                              ld +
                                          static_cast<std::size_t>(p)],
                                      colInv[j0 + j])
                                 : std::int8_t{0};
                }
            }
        }
    }
}

void
qgemmAccPanels(int m, int n, int k, const std::int8_t *a, int lda,
               const std::int8_t *panels, std::int32_t *c, int ldc)
{
    ops().qgemmAccPanels(m, n, k, a, lda, panels, c, ldc);
}

std::int32_t
qdot(int k, const std::int8_t *a, const std::int8_t *b)
{
    return ops().qdot(k, a, b);
}

std::uint16_t
floatToHalf(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    const std::uint32_t sign = (bits >> 16) & 0x8000u;
    const std::uint32_t absBits = bits & 0x7fffffffu;
    if (absBits >= 0x7f800000u) {
        // Inf / NaN: keep a quiet-NaN payload bit so NaN stays NaN.
        const std::uint32_t mant = absBits > 0x7f800000u ? 0x200u : 0u;
        return static_cast<std::uint16_t>(sign | 0x7c00u | mant);
    }
    if (absBits >= 0x477ff000u) // rounds to >= 2^16: overflow -> inf
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    if (absBits < 0x38800000u) {
        // Subnormal half (or zero): shift the implicit bit into the
        // mantissa and round-to-nearest-even at the shifted position.
        if (absBits < 0x33000000u) // below half of the smallest ulp
            return static_cast<std::uint16_t>(sign);
        const int exp = static_cast<int>(absBits >> 23);
        const std::uint32_t mant = (absBits & 0x7fffffu) | 0x800000u;
        const int shift = 126 - exp; // 14..24
        const std::uint32_t rounded =
            (mant >> shift) +
            (((mant >> (shift - 1)) & 1u) &
             (((mant & ((1u << (shift - 1)) - 1u)) != 0u) |
              ((mant >> shift) & 1u)));
        return static_cast<std::uint16_t>(sign | rounded);
    }
    // Normal: re-bias the exponent and round the 13 dropped bits.
    std::uint32_t half =
        ((absBits >> 13) & 0x3ffu) | ((((absBits >> 23) - 112u) & 0x1fu)
                                      << 10);
    const std::uint32_t rem = absBits & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1u)))
        ++half; // mantissa carry rolls into the exponent correctly
    return static_cast<std::uint16_t>(sign | half);
}

float
halfToFloat(std::uint16_t h)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u)
                               << 16;
    const std::uint32_t exp = (h >> 10) & 0x1fu;
    const std::uint32_t mant = h & 0x3ffu;
    std::uint32_t bits;
    if (exp == 0) {
        if (mant == 0) {
            bits = sign;
        } else {
            // Subnormal: normalize into a binary32 exponent.
            int e = -1;
            std::uint32_t m = mant;
            do {
                ++e;
                m <<= 1;
            } while ((m & 0x400u) == 0);
            bits = sign | ((113u - static_cast<std::uint32_t>(e) - 1u)
                           << 23) |
                   ((m & 0x3ffu) << 13);
        }
    } else if (exp == 31) {
        bits = sign | 0x7f800000u | (mant << 13);
    } else {
        bits = sign | ((exp + 112u) << 23) | (mant << 13);
    }
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
}

std::size_t
halfPanelSize(int n, int k)
{
    return gemmPanelSize(n, k);
}

void
halfPackPanels(int n, int k, const float *bt, int ldbt,
               std::uint16_t *panels)
{
    // Same walk as gemmPackPanelsT: one panel row per step p, one
    // value from each of the strip's source rows.
    const std::size_t ld = static_cast<std::size_t>(ldbt);
    for (int j0 = 0; j0 < n; j0 += kGemmPanelWidth) {
        const int w = std::min(kGemmPanelWidth, n - j0);
        const float *src = bt + static_cast<std::size_t>(j0) * ld;
        std::uint16_t *dst =
            panels + static_cast<std::size_t>(j0 / kGemmPanelWidth) *
                         static_cast<std::size_t>(k) * kGemmPanelWidth;
        for (int p = 0; p < k; ++p, dst += kGemmPanelWidth)
            for (int j = 0; j < kGemmPanelWidth; ++j)
                dst[j] = j < w ? floatToHalf(
                                     src[static_cast<std::size_t>(j) * ld +
                                         static_cast<std::size_t>(p)])
                               : std::uint16_t{0};
    }
}

void
hgemmAccPanels(int m, int n, int k, const float *a, int lda,
               const std::uint16_t *panels, float *c, int ldc)
{
    ops().hgemmAccPanels(m, n, k, a, lda, panels, c, ldc);
}

void
im2row8(const ConvSpec &spec, const std::int8_t *in, std::int8_t *rows)
{
    const int oh = spec.outHeight();
    const int ow = spec.outWidth();
    const int stride = spec.stride;
    const int kk = spec.kernel;
    const std::size_t psize = patchSize(spec);
    const std::size_t rstride =
        static_cast<std::size_t>(qrowStride(static_cast<int>(psize)));
    const auto rowBase = [&spec](int i, int y) {
        return (static_cast<std::size_t>(i) *
                    static_cast<std::size_t>(spec.inHeight) +
                static_cast<std::size_t>(y)) *
               static_cast<std::size_t>(spec.inWidth);
    };
    for (int r = 0; r < oh; ++r) {
        for (int c = 0; c < ow; ++c) {
            std::int8_t *FA3C_RESTRICT dst =
                rows + (static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(ow) +
                        static_cast<std::size_t>(c)) *
                           rstride;
            for (int i = 0; i < spec.inChannels; ++i) {
                for (int kr = 0; kr < kk; ++kr) {
                    const std::int8_t *FA3C_RESTRICT src =
                        in + rowBase(i, r * stride + kr) +
                        static_cast<std::size_t>(c * stride);
                    std::memcpy(dst, src, static_cast<std::size_t>(kk));
                    dst += kk;
                }
            }
            // Zero the quad-padding bytes so qgemm's madd reads 0.
            for (std::size_t p = psize; p < rstride; ++p)
                rows[(static_cast<std::size_t>(r) *
                          static_cast<std::size_t>(ow) +
                      static_cast<std::size_t>(c)) *
                         rstride +
                     p] = 0;
        }
    }
}

} // namespace fa3c::nn::kernels
