#include "nn/kernels/gemm.hh"

#include <algorithm>
#include <cstring>

#include "nn/kernels/dispatch.hh"

namespace fa3c::nn::kernels {

// The ISA-specialized GEMM bodies (axpy and register-tile forms) live
// in kernel_impl.inl, compiled once per dispatch target; this TU only
// keeps the pure-data-movement helpers and the dispatching wrappers.

void
gemmAcc(int m, int n, int k, const float *a, int lda, const float *b,
        int ldb, float *c, int ldc)
{
    ops().gemmAcc(m, n, k, a, lda, b, ldb, c, ldc);
}

std::size_t
gemmPanelSize(int n, int k)
{
    const std::size_t strips =
        (static_cast<std::size_t>(n) + kGemmPanelWidth - 1) /
        kGemmPanelWidth;
    return strips * static_cast<std::size_t>(k) * kGemmPanelWidth;
}

void
gemmPackPanels(int n, int k, const float *b, int ldb, float *panels)
{
    for (int j0 = 0; j0 < n; j0 += kGemmPanelWidth) {
        const int w = std::min(kGemmPanelWidth, n - j0);
        float *panel = panels + static_cast<std::size_t>(j0 /
                                                         kGemmPanelWidth) *
                                    static_cast<std::size_t>(k) *
                                    kGemmPanelWidth;
        for (int p = 0; p < k; ++p) {
            float *dst =
                panel + static_cast<std::size_t>(p) * kGemmPanelWidth;
            const float *src = b + static_cast<std::size_t>(p) *
                                       static_cast<std::size_t>(ldb) +
                               static_cast<std::size_t>(j0);
            std::memcpy(dst, src, static_cast<std::size_t>(w) *
                                      sizeof(float));
            for (int j = w; j < kGemmPanelWidth; ++j)
                dst[j] = 0.0f;
        }
    }
}

void
gemmPackPanelsT(int n, int k, const float *bt, int ldbt, float *panels)
{
    // Step p writes one contiguous panel row and reads one float from
    // each of the strip's source rows; those cache lines then serve
    // the following steps from L1.
    const std::size_t ld = static_cast<std::size_t>(ldbt);
    for (int j0 = 0; j0 < n; j0 += kGemmPanelWidth) {
        const int w = std::min(kGemmPanelWidth, n - j0);
        const float *src = bt + static_cast<std::size_t>(j0) * ld;
        float *dst = panels + static_cast<std::size_t>(j0 /
                                                       kGemmPanelWidth) *
                                  static_cast<std::size_t>(k) *
                                  kGemmPanelWidth;
        for (int p = 0; p < k; ++p, dst += kGemmPanelWidth)
            for (int j = 0; j < kGemmPanelWidth; ++j)
                dst[j] = j < w ? src[static_cast<std::size_t>(j) * ld +
                                     static_cast<std::size_t>(p)]
                               : 0.0f;
    }
}

void
gemmAccPanels(int m, int n, int k, const float *a, int lda,
              const float *panels, float *c, int ldc)
{
    ops().gemmAccPanels(m, n, k, a, lda, panels, c, ldc);
}

void
transpose(const float *src, int rows, int cols, float *dst)
{
    // Block 16x16 so both the read and write streams stay in cache.
    constexpr int kBlock = 16;
    for (int i0 = 0; i0 < rows; i0 += kBlock) {
        const int i1 = i0 + kBlock < rows ? i0 + kBlock : rows;
        for (int j0 = 0; j0 < cols; j0 += kBlock) {
            const int j1 = j0 + kBlock < cols ? j0 + kBlock : cols;
            for (int i = i0; i < i1; ++i)
                for (int j = j0; j < j1; ++j)
                    dst[static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(rows) +
                        static_cast<std::size_t>(i)] =
                        src[static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(cols) +
                            static_cast<std::size_t>(j)];
        }
    }
}

} // namespace fa3c::nn::kernels
