/**
 * @file
 * Quantized parameter images for the inference backends.
 *
 * quantizeModel() derives, from a fp32 ParamSet, the staged weight
 * images the quantized backends consume:
 *
 *  - Int8: per-output-channel symmetric int8 weights (scale
 *    maxabs/127) for both conv layers and both FC layers, packed
 *    into the quad-interleaved qgemm panel layout (kernels/quant.hh);
 *    a small-output FC head (fc4) instead keeps canonical int8 rows
 *    for the dot-product path.
 *  - Fp16: IEEE-half storage of the FC weight panels (the conv trunk
 *    stays fp32 — its weights are a rounding error of the model size,
 *    and the fp32 conv kernels already stream them well).
 *
 * Building an image costs one pass over the weights: the packers read
 * the canonical [O][I] rows directly, with no transposed copy staged.
 * Serving stages it once per publish (serve::ModelRegistry quantizes
 * on publish and shares the image across all scheduler workers via
 * shared_ptr); trainer-side backends fall back to quantizing inside
 * onParamSync. Biases are not quantized — dequantization adds them
 * in fp32.
 */

#ifndef FA3C_NN_QUANT_PARAMS_HH
#define FA3C_NN_QUANT_PARAMS_HH

#include <cstdint>
#include <vector>

#include "nn/a3c_network.hh"
#include "nn/params.hh"

namespace fa3c::nn {

/** Which quantized image quantizeModel should build. */
enum class QuantMode
{
    Int8,
    Fp16,
};

/** Staged quantized weights for one network (see file comment). */
struct QuantizedModel
{
    /** Int8 GEMM operand: panels of wT plus per-output dequant. */
    struct Int8Panels
    {
        std::vector<std::int8_t> panels; ///< qgemmPackPanels layout
        std::vector<float> scale;        ///< sw[o] = maxabs(row o)/127
    };

    /** Small-output FC head: canonical int8 rows for the dot path. */
    struct Int8Rows
    {
        std::vector<std::int8_t> rows; ///< [O][qrowStride(I)], zero-pad
        std::vector<float> scale;      ///< sw[o]
    };

    QuantMode mode = QuantMode::Int8;

    // Int8 image.
    Int8Panels conv1;
    Int8Panels conv2;
    Int8Panels fc3;
    Int8Panels fc4;     ///< only when fc4 is panel-sized
    Int8Rows fc4Rows;   ///< only when fc4 is small (the usual case)
    bool fc4Small = false;

    // Fp16 image (FC layers; fc4 only when panel-sized — a small
    // fc4 head reads the fp32 params directly, its weights are tiny).
    std::vector<std::uint16_t> fc3Half;
    std::vector<std::uint16_t> fc4Half;
};

/** Build the quantized image of @p params for @p net. */
QuantizedModel quantizeModel(const A3cNetwork &net,
                             const ParamSet &params, QuantMode mode);

} // namespace fa3c::nn

#endif // FA3C_NN_QUANT_PARAMS_HH
