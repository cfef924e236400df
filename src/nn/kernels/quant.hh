/**
 * @file
 * Quantized-inference kernel utilities: int8 weight/activation
 * quantization, the pair-interleaved int8 panel layout consumed by
 * qgemmAccPanels, IEEE-half storage conversion for the fp16 panels,
 * and the int8 im2row transform for quantized convolution.
 *
 * Quantization scheme (per-output-channel weights, unsigned
 * activations):
 *
 *   weight scale  sw[o] = maxabs(w row o) / 127
 *   act scale     sx    = maxabs(x) / 127        (dynamic, per tensor)
 *   qw            = clamp(rne(w / sw), -127, 127)   (signed int8)
 *   qx            = clamp(rne(x / sx), 0, 127)      (unsigned 7-bit)
 *   acc[o]        = sum_i qx[i] * qw[o][i]       (exact int32)
 *   out[o]        = float(acc[o]) * (sw[o] * sx) + bias[o]
 *
 * Activations use an unsigned clamp because every activation tensor
 * in this network is non-negative (observations are [0, 1], hidden
 * layers are post-ReLU), so [0, 127] loses nothing over [-127, 127] —
 * and it is what lets the AVX2 kernel use vpmaddubsw (unsigned x
 * signed byte multiply-add), which doubles the per-instruction MAC
 * rate over a sign-extended pmaddwd scheme. With qx <= 127 and
 * |qw| <= 127 the vpmaddubsw intermediate (<= 2 * 127^2 = 32258)
 * never saturates int16, so the arithmetic stays exact.
 *
 * The integer accumulation is exact (|acc| <= k * 127^2 stays far
 * below 2^31 for every layer geometry here), and the dequantization
 * runs in one fixed order, so quantized results are bit-identical
 * across ISAs and across batch sizes. Differences vs fp32 come only
 * from the quantization itself and are bounded by the parity tests.
 *
 * Int8 panel layout (B operand of qgemmAccPanels): 16-column strips;
 * within a strip, taps are grouped in quads so one 64-byte row holds
 * 16 columns x 4 consecutive k steps, interleaved [col][quad] —
 * exactly the operand shape of one AVX-512 vpdpbusd against a
 * broadcast activation quad. The AVX2 kernel consumes the same row
 * as two 32-byte halves (8 columns each) via vpmaddubsw followed by
 * vpmaddwd against ones, and the scalar fallback walks the layout
 * with identical integer semantics.
 */

#ifndef FA3C_NN_KERNELS_QUANT_HH
#define FA3C_NN_KERNELS_QUANT_HH

#include <cstddef>
#include <cstdint>

#include "nn/layers.hh"

namespace fa3c::nn::kernels {

/** Column width of the int8 panel layout. */
constexpr int kQuantPanelWidth = 16;

/** Taps per panel row of the int8 panel layout. */
constexpr int kQuantPanelDepth = 4;

/** Row stride (bytes) of a zero-padded int8 A operand of depth k. */
inline int
qrowStride(int k)
{
    return kQuantPanelDepth *
           ((k + kQuantPanelDepth - 1) / kQuantPanelDepth);
}

/** maxabs over a float row (0 for an empty row). */
float rowMaxAbs(const float *x, std::size_t n);

/**
 * Weight quantization: q[i] = clamp(rne(x[i] * inv), -127, 127) —
 * ISA-dispatched. Round-to-nearest-even under the default FP
 * environment.
 *
 * @pre Every x[i] is finite. Non-finite inputs round differently in
 * the vector body (cvtps2dq yields INT_MIN, clamped low) and the
 * scalar tail (lrintf on NaN/out-of-range is unspecified), so the
 * quantized value would depend on the element's position within the
 * row and the cross-ISA bit-identity guarantee does not cover them.
 */
void quantizeRow(int n, const float *x, float inv, std::int8_t *q);

/**
 * Activation quantization: q[i] = clamp(rne(x[i] * inv), 0, 127) —
 * ISA-dispatched, same rounding as quantizeRow. The unsigned clamp
 * matches the non-negative activation domain (see file header); this
 * is the only valid producer of qgemmAccPanels / qdot A operands.
 *
 * @pre Every x[i] is finite (same contract as quantizeRow).
 */
void quantizeRowU(int n, const float *x, float inv, std::int8_t *q);

/** Bytes qgemmPackPanels needs for a k x n B matrix. */
std::size_t qgemmPanelBytes(int n, int k);

/**
 * Quantize-and-pack B[k x n] into the quad-interleaved int8 panel
 * layout, reading it from its transpose: @p bt holds the n rows of
 * B^T (row stride @p ldbt >= k) — the canonical [O][I] weight rows,
 * so no transposed copy is staged. @p colInv holds the per-column
 * inverse scales of B (127 / maxabs of bt row j); quantization uses
 * the same rne+clamp as quantizeRow. k is zero-padded to a multiple
 * of kQuantPanelDepth.
 */
void qgemmPackPanels(int n, int k, const float *bt, int ldbt,
                     const float *colInv, std::int8_t *panels);

/**
 * C[m x n] += A[m x k] * B (int32 accumulate), B packed by
 * qgemmPackPanels. A rows are unsigned activation bytes in [0, 127]
 * (produced by quantizeRowU), zero-padded to qrowStride(k)
 * (@p lda >= qrowStride(k)); bytes above 127 are outside the
 * contract (the AVX2 path saturates intermediates, the scalar path
 * does not). Exact integer arithmetic: results are identical across
 * ISAs. The caller pre-fills C (usually zero).
 */
void qgemmAccPanels(int m, int n, int k, const std::int8_t *a, int lda,
                    const std::int8_t *panels, std::int32_t *c,
                    int ldc);

/**
 * Exact int8 dot product with int32 accumulate (small-N path). Both
 * operands are read as signed; with A from quantizeRowU the result
 * matches the qgemmAccPanels interpretation exactly.
 */
std::int32_t qdot(int k, const std::int8_t *a, const std::int8_t *b);

/** Round-to-nearest-even float -> IEEE binary16 conversion. */
std::uint16_t floatToHalf(float v);

/** Exact IEEE binary16 -> float conversion. */
float halfToFloat(std::uint16_t h);

/** Halfs halfPackPanels needs for a k x n B matrix. */
std::size_t halfPanelSize(int n, int k);

/**
 * Pack B[k x n] into kGemmPanelWidth-column half panels (same
 * geometry as gemmPackPanels, fp16 storage), reading it from its
 * transpose @p bt[n][ldbt] like gemmPackPanelsT. Conversion is
 * floatToHalf (rne); the last panel is zero-padded.
 */
void halfPackPanels(int n, int k, const float *bt, int ldbt,
                    std::uint16_t *panels);

/**
 * C[m x n] += A[m x k] * half2float(B), B packed by halfPackPanels.
 * Same fp32 accumulation order as gemmAccPanels; bit-identical
 * across ISAs (the half->float loads are exact).
 */
void hgemmAccPanels(int m, int n, int k, const float *a, int lda,
                    const std::uint16_t *panels, float *c, int ldc);

/**
 * Int8 im2row: rows[patchCount][qrowStride(patchSize)] = patches of
 * in[I][H][W], rows zero-padded to the quad-aligned stride
 * qgemmAccPanels requires. The int8 twin of im2row (im2col.hh).
 */
void im2row8(const ConvSpec &spec, const std::int8_t *in,
             std::int8_t *rows);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_QUANT_HH
