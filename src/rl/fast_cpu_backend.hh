/**
 * @file
 * DnnBackend built on the blocked im2col/GEMM kernel library.
 *
 * Produces the same results as ReferenceBackend up to float
 * reassociation (the GEMM sums filter taps in the same (i, kr, kc)
 * order as the golden loops, but register blocking can change which
 * partial sums share a register) while running several times faster:
 *
 *  - convolutions go through an im2col patch matrix and a
 *    register-blocked axpy-form GEMM that autovectorizes without
 *    -ffast-math;
 *  - FC forward runs a GEMM over one weight image per layer: column
 *    panels of wT[I][O] packed in one pass straight from the
 *    canonical [O][I] weights in onParamSync() (the same
 *    stage-on-sync pattern the FA3C datapath backend uses for its
 *    FW/BW layouts, and FA3C's own single-copy-plus-layout-on-load);
 *  - forwardBatch() is the one forward pipeline: the conv trunk per
 *    sample, the conv2 maps gathered into one [batch][I] matrix, FC3
 *    as one M = batch GEMM, ReLU and scatter, FC4 the same way.
 *    forward() is that pipeline with a batch of one, so the PAAC
 *    rollout, the GA3C predictor, and the serving scheduler read the
 *    FC weight matrices once per batch instead of once per request —
 *    the dominant cost of single-request inference on wide layers —
 *    and both entry points give bit-identical results by
 *    construction.
 *
 * The pipeline calls three per-layer steps — the image check, the
 * conv trunk of one sample, and one FC layer over the batch — which
 * QuantCpuBackend overrides with its int8/fp16 kernels.
 *
 * Each instance owns its scratch buffers, so it is single-agent like
 * every other DnnBackend; trainers construct one per agent.
 */

#ifndef FA3C_RL_FAST_CPU_BACKEND_HH
#define FA3C_RL_FAST_CPU_BACKEND_HH

#include <chrono>
#include <vector>

#include "rl/backend.hh"

namespace fa3c::rl {

/** Backend running the fast kernel library (nn/kernels/). */
class FastCpuBackend : public DnnBackend
{
  public:
    explicit FastCpuBackend(const nn::A3cNetwork &net);

    const nn::A3cNetwork &network() const override { return net_; }

    /** Restages the conv2 transpose and FC panels from @p params. */
    void onParamSync(const nn::ParamSet &params) override;

    void forward(const nn::ParamSet &params, const tensor::Tensor &obs,
                 nn::A3cNetwork::Activations &act) override;

    void backward(const nn::ParamSet &params,
                  const nn::A3cNetwork::Activations &act,
                  const tensor::Tensor &g_out,
                  nn::ParamSet &grads) override;

    void
    forwardBatch(const nn::ParamSet &params,
                 std::span<const tensor::Tensor *const> obs,
                 std::span<nn::A3cNetwork::Activations *const> acts)
        override;

  protected:
    // Protected rather than private: QuantCpuBackend derives from
    // this class to inherit the forward pipeline, the fp32 training
    // path (backward) and the fp32 conv trunk its fp16 mode uses.

    /**
     * Latency sampler for the nn.kernel.* histograms: times the
     * enclosed region only while metrics are enabled, so the fast
     * path pays one relaxed atomic load when observability is off.
     */
    class KernelTimer
    {
      public:
        explicit KernelTimer(const char *name);
        ~KernelTimer();
        KernelTimer(const KernelTimer &) = delete;
        KernelTimer &operator=(const KernelTimer &) = delete;

      private:
        const char *name_;
        bool enabled_;
        std::chrono::steady_clock::time_point start_;
    };

    /** The FC layer a forwardFc() call runs. */
    enum class FcLayer
    {
        Fc3,
        Fc4,
    };

    /** Stage lazily when forward/backward arrive before any sync. */
    void ensureStaged(const nn::ParamSet &params);

    /** The image check: make sure the weight image the forward
     * layers read is staged, even when no sync came first. */
    virtual void
    ensureForwardImage(const nn::ParamSet &params)
    {
        ensureStaged(params);
    }

    /** Conv trunk of one sample: fills @p act from input through
     * conv2Flat. */
    virtual void forwardConvs(const nn::ParamSet &params,
                              const tensor::Tensor &obs,
                              nn::A3cNetwork::Activations &act);

    /** One FC layer over a batch: out[s] = W in[s] + b, for @p bsz
     * rows of @p in and @p out in row-major order. */
    virtual void forwardFc(const nn::ParamSet &params, FcLayer layer,
                           int bsz, const float *in, float *out);

    const nn::A3cNetwork &net_;

    // Staged weight images (rebuilt in onParamSync). Conv1 needs
    // none: its forward uses the canonical [O][I*K*K] layout and
    // backward into the game screen is never computed.
    std::vector<float> conv2WT_;   ///< [I*K*K][O] for conv2 BW
    std::vector<float> fc3Panels_; ///< wT panels for fc3 FW
    /**
     * FC4 heads narrower than kernels::kSmallFcMaxOut skip the panel
     * staging entirely and run the canonical-row dot-product kernel:
     * the panel layout pads every strip to 32 columns, which for the
     * 5-wide head wastes 6x the weight bandwidth (the cause of the
     * old fc4 0.5x regression vs golden).
     */
    bool fc4Small_;
    std::vector<float> fc4Panels_; ///< wT panels for fc4 FW (wide heads)
    bool staged_ = false;

    // Per-agent scratch: one im2col/im2row patch matrix (sized for the
    // larger conv) plus the backward-pass gradient tensors, allocated
    // once since the geometry is fixed.
    std::vector<float> colScratch_;
    tensor::Tensor gFc3Act_;
    tensor::Tensor gFc3Pre_;
    tensor::Tensor gConv2Flat_;
    tensor::Tensor gConv2Act_;
    tensor::Tensor gConv2Pre_;
    tensor::Tensor gConv1Act_;
    tensor::Tensor gConv1Pre_;

    // Batch staging buffers for forwardBatch (grown on demand). A
    // batch of one reads its conv2 map in place and needs no batchIn_.
    std::vector<float> batchIn_;  ///< [B][fc3.in]  flattened conv2 maps
    std::vector<float> batchMid_; ///< [B][fc3.out] fc3 pre-activations
    std::vector<float> batchAct_; ///< [B][fc3.out] post-ReLU
    std::vector<float> batchOut_; ///< [B][fc4.out]
};

} // namespace fa3c::rl

#endif // FA3C_RL_FAST_CPU_BACKEND_HH
