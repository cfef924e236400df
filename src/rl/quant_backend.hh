/**
 * @file
 * Quantized inference backend (BackendKind::Int8 / BackendKind::Fp16).
 *
 * Forward passes run on a staged quantized weight image
 * (nn::QuantizedModel):
 *
 *  - Int8: dynamic symmetric activation quantization (per tensor,
 *    scale maxabs/127) against per-output-channel int8 weights, exact
 *    int32 accumulation (AVX2 pmaddwd or the scalar twin), then fp32
 *    dequantize + bias. Both conv layers run an int8 im2row/qgemm
 *    pipeline; fc3 runs the batched qgemm; a small fc4 head runs
 *    int8 dot products over canonical rows.
 *  - Fp16: the conv trunk stays fp32 (inherited), the wide FC
 *    weights are stored as IEEE halves and up-converted exactly
 *    inside the GEMM, halving weight-matrix bandwidth.
 *
 * These are per-layer kernels inside FastCpuBackend's one forward
 * pipeline: this class overrides only the image check, the conv trunk
 * of one sample, and one FC layer, so forward() and forwardBatch()
 * (gather, ReLU, scatter) are the base class's.
 *
 * The image arrives either pre-built via onQuantSync (serving:
 * ModelRegistry quantizes once per publish and shares it across
 * workers) or is derived locally in onParamSync (trainers). Training
 * itself stays fp32: backward() is inherited from FastCpuBackend, so
 * GA3C can run a quantized predictor against fp32 learners — the
 * same inference/training precision split FA3C uses in hardware.
 *
 * Results are bit-identical across ISA levels, batch sizes and
 * thread counts (integer math is exact, dequantization order is
 * fixed per element); they differ from fp32 only by the quantization
 * itself, which the parity tests bound.
 */

#ifndef FA3C_RL_QUANT_BACKEND_HH
#define FA3C_RL_QUANT_BACKEND_HH

#include <cstdint>
#include <vector>

#include "nn/quant_params.hh"
#include "rl/fast_cpu_backend.hh"

namespace fa3c::rl {

/** Quantized-inference backend; see file comment. */
class QuantCpuBackend : public FastCpuBackend
{
  public:
    QuantCpuBackend(const nn::A3cNetwork &net, nn::QuantMode mode);

    nn::QuantMode mode() const { return mode_; }

    bool wantsQuantized() const override { return true; }

    /** Re-derives the quantized image locally (trainer path). */
    void onParamSync(const nn::ParamSet &params) override;

    /** Adopts a pre-built image (serving path, shared per publish). */
    void onQuantSync(
        const nn::ParamSet &params,
        std::shared_ptr<const nn::QuantizedModel> quant) override;

  protected:
    /** Quantize locally when forward arrives before any sync. */
    void ensureForwardImage(const nn::ParamSet &params) override;

    /** Int8: the quantized conv trunk; Fp16: the inherited fp32 one. */
    void forwardConvs(const nn::ParamSet &params,
                      const tensor::Tensor &obs,
                      nn::A3cNetwork::Activations &act) override;

    /** Int8 panels/rows or half panels; an fp16 small head runs the
     * inherited fp32 dot kernel off the canonical weights. */
    void forwardFc(const nn::ParamSet &params, FcLayer layer, int bsz,
                   const float *in, float *out) override;

  private:
    /** One int8 conv layer: quantize -> im2row8 -> qgemm -> dequant. */
    void convLayerInt8(const nn::ConvSpec &spec,
                       const nn::QuantizedModel::Int8Panels &qw,
                       std::span<const float> bias, const float *in,
                       float *outPre);

    /** Batched int8 FC: out[s][o] = deq(qgemm) + bias[o]. */
    void fcBatchInt8(const nn::FcSpec &spec,
                     const nn::QuantizedModel::Int8Panels &qw,
                     std::span<const float> bias, int bsz,
                     const float *in, float *out);

    /** Small-head int8 FC via per-row dot products. */
    void fcSmallInt8(const nn::FcSpec &spec,
                     const nn::QuantizedModel::Int8Rows &qw,
                     std::span<const float> bias, int bsz,
                     const float *in, float *out);

    /** Batched fp16-storage FC (bias prefill + hgemm). */
    void fcBatchHalf(const nn::FcSpec &spec,
                     const std::vector<std::uint16_t> &panels,
                     std::span<const float> bias, int bsz,
                     const float *in, float *out);

    nn::QuantMode mode_;
    std::shared_ptr<const nn::QuantizedModel> quant_;

    // Int8 scratch (per-backend, like the fp32 scratch in the base).
    std::vector<std::int8_t> img8_;  ///< quantized input feature map
    std::vector<std::int8_t> rows8_; ///< int8 patch rows (im2row8)
    std::vector<std::int32_t> acc32_; ///< integer accumulators
    std::vector<std::int8_t> qrows_; ///< quantized activation rows
    std::vector<float> sx_;          ///< per-sample activation scales
};

} // namespace fa3c::rl

#endif // FA3C_RL_QUANT_BACKEND_HH
