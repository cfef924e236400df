#include "nn/quant_params.hh"

#include <cstring>

#include "nn/kernels/fc.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/im2col.hh"
#include "nn/kernels/quant.hh"

namespace fa3c::nn {

namespace {

/** Per-row maxabs -> (dequant scale sw, inverse 127/maxabs). */
void
rowScales(const float *w, int rows, int cols, std::vector<float> &sw,
          std::vector<float> &inv)
{
    sw.resize(static_cast<std::size_t>(rows));
    inv.resize(static_cast<std::size_t>(rows));
    for (int o = 0; o < rows; ++o) {
        const float m = kernels::rowMaxAbs(
            w + static_cast<std::size_t>(o) *
                    static_cast<std::size_t>(cols),
            static_cast<std::size_t>(cols));
        // A zero row quantizes to zeros with scale 0 (the inverse is
        // forced to 0 so no inf*0 NaN can reach the rounding).
        sw[static_cast<std::size_t>(o)] = m / 127.0f;
        inv[static_cast<std::size_t>(o)] = m > 0.0f ? 127.0f / m : 0.0f;
    }
}

/**
 * Pack canonical w[rows x cols] for use as the qgemm B operand
 * (wT[cols x rows] panels, one column per output row of w).
 */
QuantizedModel::Int8Panels
packInt8(const float *w, int rows, int cols)
{
    QuantizedModel::Int8Panels out;
    std::vector<float> inv;
    rowScales(w, rows, cols, out.scale, inv);
    out.panels.resize(kernels::qgemmPanelBytes(rows, cols));
    kernels::qgemmPackPanels(rows, cols, w, cols, inv.data(),
                             out.panels.data());
    return out;
}

/** Quantize canonical w rows in place for the small dot path. */
QuantizedModel::Int8Rows
packInt8Rows(const float *w, int rows, int cols)
{
    QuantizedModel::Int8Rows out;
    std::vector<float> inv;
    rowScales(w, rows, cols, out.scale, inv);
    const std::size_t stride =
        static_cast<std::size_t>(kernels::qrowStride(cols));
    out.rows.assign(static_cast<std::size_t>(rows) * stride, 0);
    for (int o = 0; o < rows; ++o)
        kernels::quantizeRow(
            cols,
            w + static_cast<std::size_t>(o) *
                    static_cast<std::size_t>(cols),
            inv[static_cast<std::size_t>(o)],
            out.rows.data() + static_cast<std::size_t>(o) * stride);
    return out;
}

/** halfPackPanels of wT[cols x rows] (the fp32 panel geometry). */
std::vector<std::uint16_t>
packHalf(const float *w, int rows, int cols)
{
    std::vector<std::uint16_t> panels(
        kernels::halfPanelSize(rows, cols));
    kernels::halfPackPanels(rows, cols, w, cols, panels.data());
    return panels;
}

} // namespace

QuantizedModel
quantizeModel(const A3cNetwork &net, const ParamSet &params,
              QuantMode mode)
{
    QuantizedModel q;
    q.mode = mode;
    const auto conv1W = params.view("conv1.w");
    const auto conv2W = params.view("conv2.w");
    const auto fc3W = params.view("fc3.w");
    const auto fc4W = params.view("fc4.w");
    const int fc3In = net.fc3().inFeatures;
    const int fc3Out = net.fc3().outFeatures;
    const int fc4In = net.fc4().inFeatures;
    const int fc4Out = net.fc4().outFeatures;
    q.fc4Small = fc4Out < kernels::kSmallFcMaxOut;
    if (mode == QuantMode::Int8) {
        const int taps1 = static_cast<int>(kernels::patchSize(net.conv1()));
        const int taps2 = static_cast<int>(kernels::patchSize(net.conv2()));
        q.conv1 = packInt8(conv1W.data(), net.conv1().outChannels,
                           taps1);
        q.conv2 = packInt8(conv2W.data(), net.conv2().outChannels,
                           taps2);
        q.fc3 = packInt8(fc3W.data(), fc3Out, fc3In);
        if (q.fc4Small)
            q.fc4Rows = packInt8Rows(fc4W.data(), fc4Out, fc4In);
        else
            q.fc4 = packInt8(fc4W.data(), fc4Out, fc4In);
    } else {
        q.fc3Half = packHalf(fc3W.data(), fc3Out, fc3In);
        if (!q.fc4Small)
            q.fc4Half = packHalf(fc4W.data(), fc4Out, fc4In);
    }
    return q;
}

} // namespace fa3c::nn
