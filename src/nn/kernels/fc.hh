/**
 * @file
 * Fast fully-connected kernels.
 *
 * The golden fcForward in nn/layers.cc is a per-row dot product — a
 * reduction the autovectorizer cannot reassociate without
 * -ffast-math. The forward kernel instead treats the weights as the
 * GEMM B operand wT[I][O], packed into column panels straight from
 * the canonical w[O][I] (gemmPackPanelsT), so the inner loop becomes
 * an axpy over the output lane (out[:] += in[i] * wT[i][:]) that
 * vectorizes like the GEMM microkernel. One call serves any batch:
 * the single-sample forward is M = 1 and the multi-agent path is
 * M = batch, with the same per-element order — so single and batched
 * results are bit-identical.
 *
 * Backward and gradient already stream the canonical [O][I] rows
 * contiguously, so they need no staged layout.
 */

#ifndef FA3C_NN_KERNELS_FC_HH
#define FA3C_NN_KERNELS_FC_HH

#include <functional>
#include <span>

#include "nn/layers.hh"

namespace fa3c::nn::kernels {

/**
 * Forward: out[batch][O] = in[batch][I] * wT + b per row, over
 * weights pre-packed with gemmPackPanelsT (@p wPanels = panels of
 * wT[I][O] built from the canonical w[O][I], gemmPanelSize(O, I)
 * floats). The panel layout streams the weight matrix sequentially
 * inside the GEMM, which matters on wide layers where a row-major wT
 * walk would take a TLB miss per k step; backends stage the panels
 * once per parameter sync. batch = 1 is the single-sample forward.
 */
void fcForwardFastBatchPanels(const FcSpec &spec, int batch,
                              const float *in,
                              std::span<const float> wPanels,
                              std::span<const float> b, float *out);

/**
 * Small-output forward over the canonical w[O][I] rows: per-row dot
 * products, no transpose or panel staging. Below kGemmPanelWidth
 * outputs the panel path pads every strip to 32 columns (6x wasted
 * weight bandwidth for the 5-wide fc4 head — the cause of its 0.5x
 * regression); the dot form reads exactly the live weights. Batched
 * and single-sample calls use the same per-element order, so they
 * stay bit-identical to each other (golden parity is ULP-bounded
 * like the other fast kernels).
 */
void fcForwardSmallBatch(const FcSpec &spec, int batch, const float *in,
                         std::span<const float> w,
                         std::span<const float> b, float *out);

/** Output width below which fcForwardSmallBatch wins over panels. */
constexpr int kSmallFcMaxOut = 32;

/**
 * The strip split every batched FC GEMM over a panel layout uses
 * (fp32, int8 and fp16 panels alike). It runs @p body(n0, n1) over
 * output columns [n0, n1), with n0 a multiple of @p stripWidth. The
 * split spreads whole strips across the kernel pool when the pool is
 * wider than one thread, batch >= 4, there are at least two strips,
 * and batch * outF * inF multiply-adds clear the fork-join cost;
 * otherwise one call covers every column on the calling thread. Each
 * output column belongs to exactly one call and keeps its order of
 * accumulation, so the split never changes results.
 */
void fcSplitStrips(int batch, int outF, int inF, int stripWidth,
                   const std::function<void(int n0, int n1)> &body);

/** Backward: g_in[I] = W^T * g_out using the canonical w[O][I]. */
void fcBackwardFast(const FcSpec &spec, const float *g_out,
                    std::span<const float> w, float *g_in);

/** Gradient: g_w += g_out x in^T; g_b += g_out (accumulates). */
void fcGradientFast(const FcSpec &spec, const float *in,
                    const float *g_out, std::span<float> g_w,
                    std::span<float> g_b);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_FC_HH
