#include "nn/kernels/im2col.hh"

#include <cstring>

#include "nn/kernels/gemm.hh"

namespace fa3c::nn::kernels {

namespace {

inline std::size_t
inRowBase(const ConvSpec &s, int i, int y)
{
    return (static_cast<std::size_t>(i) *
                static_cast<std::size_t>(s.inHeight) +
            static_cast<std::size_t>(y)) *
           static_cast<std::size_t>(s.inWidth);
}

} // namespace

void
im2col(const ConvSpec &spec, const float *in, float *col)
{
    const std::size_t ld = patchCount(spec);
    const int oh = spec.outHeight();
    const int ow = spec.outWidth();
    const int stride = spec.stride;
    const int k = spec.kernel;
    for (int i = 0; i < spec.inChannels; ++i) {
        for (int kr = 0; kr < k; ++kr) {
            // The K col rows of taps (i, kr, 0..K), ld floats apart.
            float *FA3C_RESTRICT taps =
                col + (static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(k) +
                       static_cast<std::size_t>(kr)) *
                          static_cast<std::size_t>(k) * ld;
            for (int r = 0; r < oh; ++r) {
                // Row order: one input row, read once while it sits
                // in L1, feeds output row r of all K taps.
                const float *FA3C_RESTRICT src =
                    in + inRowBase(spec, i, r * stride + kr);
                float *FA3C_RESTRICT dst =
                    taps + static_cast<std::size_t>(r) *
                               static_cast<std::size_t>(ow);
                for (int kc = 0; kc < k; ++kc) {
                    const float *FA3C_RESTRICT s = src + kc;
                    float *FA3C_RESTRICT d =
                        dst + static_cast<std::size_t>(kc) * ld;
                    for (int c = 0; c < ow; ++c)
                        d[c] = s[static_cast<std::size_t>(c) *
                                 static_cast<std::size_t>(stride)];
                }
            }
        }
    }
}

void
im2row(const ConvSpec &spec, const float *in, float *rows)
{
    const int oh = spec.outHeight();
    const int ow = spec.outWidth();
    const int stride = spec.stride;
    const int k = spec.kernel;
    const std::size_t psize = patchSize(spec);
    for (int r = 0; r < oh; ++r) {
        for (int c = 0; c < ow; ++c) {
            float *FA3C_RESTRICT dst =
                rows + (static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(ow) +
                        static_cast<std::size_t>(c)) *
                           psize;
            for (int i = 0; i < spec.inChannels; ++i) {
                for (int kr = 0; kr < k; ++kr) {
                    // K contiguous input pixels per (i, kr).
                    const float *FA3C_RESTRICT src =
                        in + inRowBase(spec, i, r * stride + kr) +
                        static_cast<std::size_t>(c * stride);
                    std::memcpy(dst, src,
                                static_cast<std::size_t>(k) *
                                    sizeof(float));
                    dst += k;
                }
            }
        }
    }
}

void
col2imAcc(const ConvSpec &spec, const float *col, float *in_grad)
{
    const int oh = spec.outHeight();
    const int ow = spec.outWidth();
    const int stride = spec.stride;
    const std::size_t n = patchCount(spec);
    const float *FA3C_RESTRICT src_row = col;
    for (int i = 0; i < spec.inChannels; ++i) {
        for (int kr = 0; kr < spec.kernel; ++kr) {
            for (int kc = 0; kc < spec.kernel; ++kc) {
                for (int r = 0; r < oh; ++r) {
                    float *FA3C_RESTRICT dst =
                        in_grad + inRowBase(spec, i, r * stride + kr) +
                        static_cast<std::size_t>(kc);
                    const float *FA3C_RESTRICT src =
                        src_row + static_cast<std::size_t>(r) *
                                      static_cast<std::size_t>(ow);
                    for (int c = 0; c < ow; ++c)
                        dst[static_cast<std::size_t>(c * stride)] +=
                            src[c];
                }
                src_row += n;
            }
        }
    }
}

} // namespace fa3c::nn::kernels
