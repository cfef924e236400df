#include "timing_backend.hh"

namespace perfbench {

namespace nn = fa3c::nn;
namespace tensor = fa3c::tensor;

namespace {

// Each agent sees ~10^4 calls in a run; reserving keeps the hot path
// free of reallocation (reserved pages cost no memory until touched).
constexpr std::size_t kReserveCalls = 1u << 16;

} // namespace

CallLog &
CallRecorder::newLog(int track)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CallLog &log = logs_.emplace_back();
    log.track = track;
    log.calls.reserve(kReserveCalls);
    return log;
}

std::function<std::unique_ptr<rl::DnnBackend>(int)>
CallRecorder::factory(rl::BackendKind kind, const nn::A3cNetwork &net,
                      int track_base, bool agent)
{
    return [this, kind, &net, track_base,
            agent](int index) -> std::unique_ptr<rl::DnnBackend> {
        CallLog &log = newLog(track_base + index);
        return std::make_unique<TimingBackend>(
            rl::makeDnnBackend(kind, net), log, spans_, agent);
    };
}

TimingBackend::TimingBackend(std::unique_ptr<rl::DnnBackend> inner,
                             CallLog &log, SpanLog *spans, bool agent)
    : inner_(std::move(inner)), log_(log), spans_(spans), agent_(agent)
{
}

TimingBackend::~TimingBackend()
{
    closeRoutine(lastEnd_);
}

void
TimingBackend::closeRoutine(std::int64_t t_end)
{
    if (spans_ && routineId_ != 0)
        spans_->add(Span{routineId_, 0, "agent.routine", log_.track,
                         routineT0_, t_end});
    routineId_ = 0;
}

void
TimingBackend::record(CallKind kind, int n, std::int64_t t0,
                      std::int64_t t1, const char *name)
{
    log_.calls.push_back(Call{kind, n, t0, t1});
    lastEnd_ = t1;
    if (spans_)
        spans_->add(Span{spans_->newId(), routineId_, name, log_.track,
                         t0, t1});
}

void
TimingBackend::onParamSync(const nn::ParamSet &params)
{
    const std::int64_t t0 = nowNs();
    if (agent_ && spans_) {
        closeRoutine(t0);
        routineId_ = spans_->newId();
        routineT0_ = t0;
    }
    inner_->onParamSync(params);
    record(CallKind::Sync, 1, t0, nowNs(), "backend.sync");
}

void
TimingBackend::onQuantSync(
    const nn::ParamSet &params,
    std::shared_ptr<const nn::QuantizedModel> quant)
{
    const std::int64_t t0 = nowNs();
    inner_->onQuantSync(params, std::move(quant));
    record(CallKind::Sync, 1, t0, nowNs(), "backend.sync");
}

void
TimingBackend::forward(const nn::ParamSet &params,
                       const tensor::Tensor &obs,
                       nn::A3cNetwork::Activations &act)
{
    const std::int64_t t0 = nowNs();
    inner_->forward(params, obs, act);
    record(CallKind::Forward, 1, t0, nowNs(), "backend.fw");
}

void
TimingBackend::backward(const nn::ParamSet &params,
                        const nn::A3cNetwork::Activations &act,
                        const tensor::Tensor &g_out,
                        nn::ParamSet &grads)
{
    const std::int64_t t0 = nowNs();
    inner_->backward(params, act, g_out, grads);
    record(CallKind::Backward, 1, t0, nowNs(), "backend.bw");
}

void
TimingBackend::forwardBatch(
    const nn::ParamSet &params,
    std::span<const tensor::Tensor *const> obs,
    std::span<nn::A3cNetwork::Activations *const> acts)
{
    const std::int64_t t0 = nowNs();
    inner_->forwardBatch(params, obs, acts);
    record(CallKind::ForwardBatch, static_cast<int>(obs.size()), t0,
           nowNs(), "backend.fw_batch");
}

} // namespace perfbench
