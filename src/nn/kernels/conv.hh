/**
 * @file
 * Fast convolution kernels: blocked im2col/GEMM formulations of the
 * three computation types (FW, BW, GC) the golden model in
 * nn/layers.cc implements with direct loops.
 *
 * Weight layouts:
 *  - forward and gradient use the canonical [O][I*K*K] layout (the
 *    ParamSet "convN.w" buffer, viewed as a GEMM A/C matrix);
 *  - backward needs the transpose [I*K*K][O]; callers stage it once
 *    per parameter sync with kernels::transpose (FastCpuBackend does
 *    this in onParamSync).
 *
 * Forward lowers the input with im2col, which walks it in row order
 * (each input row is read once and copied, strided, into the K col
 * rows of its taps), so the lowering is plain data movement at the
 * portable baseline flags with no per-stride special cases.
 *
 * All kernels take a caller-provided scratch buffer of colSize(spec)
 * floats so per-call allocation never lands on the hot path. Results
 * match the golden model up to floating-point reassociation (the
 * parity tests bound the ULP error).
 */

#ifndef FA3C_NN_KERNELS_CONV_HH
#define FA3C_NN_KERNELS_CONV_HH

#include <span>

#include "nn/kernels/im2col.hh"
#include "nn/layers.hh"

namespace fa3c::nn::kernels {

/**
 * Forward: out[O][OH*OW] = w[O][I*K*K] * im2col(in) + b.
 *
 * @param scratch At least colSize(spec) floats.
 */
void convForwardFast(const ConvSpec &spec, const float *in,
                     std::span<const float> w, std::span<const float> b,
                     float *out, std::span<float> scratch);

/**
 * Backward: in_grad = col2im(wT * g_out); in_grad is zeroed first.
 *
 * @param wT      Transposed weights [I*K*K][O] (staged by the caller).
 * @param scratch At least colSize(spec) floats.
 */
void convBackwardFast(const ConvSpec &spec, const float *g_out,
                      std::span<const float> wT, float *in_grad,
                      std::span<float> scratch);

/**
 * Gradient: g_w[O][I*K*K] += g_out[O][OH*OW] * im2row(in);
 * g_b[o] += sum of g_out row o. Accumulates (callers zero per batch).
 *
 * @param scratch At least colSize(spec) floats.
 */
void convGradientFast(const ConvSpec &spec, const float *in,
                      const float *g_out, std::span<float> g_w,
                      std::span<float> g_b, std::span<float> scratch);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_CONV_HH
