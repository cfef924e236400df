/**
 * @file
 * The benchmark's timing rl::DnnBackend decorator.
 *
 * TimingBackend wraps the backend a trainer or serving replica would
 * have built and forwards every call unchanged, stamping the steady
 * clock before and after each one into a CallLog. It is injected
 * through the BackendFactory parameters the system already exposes
 * (ReplicaRouter, WorkerRunner, A3cTrainer), so no code under src/
 * changes. With a SpanLog attached it also records spans: one per
 * call, and for training agents one "routine" span per parameter
 * sync (from one onParamSync to the next) that parents the calls
 * made inside it.
 */

#ifndef PERFBENCH_TIMING_BACKEND_HH
#define PERFBENCH_TIMING_BACKEND_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "rl/backend.hh"
#include "spans.hh"

namespace perfbench {

namespace rl = fa3c::rl;

enum class CallKind : std::uint8_t
{
    Forward,      ///< single-sample forward (agent inference task)
    ForwardBatch, ///< batched forward (serving)
    Backward,     ///< BW + GC of one sample
    Sync,         ///< onParamSync / onQuantSync (parameter staging)
};

/** One call into the wrapped backend. */
struct Call
{
    CallKind kind = CallKind::Forward;
    int n = 1; ///< samples (batch size for ForwardBatch)
    std::int64_t t0Ns = 0;
    std::int64_t t1Ns = 0;
};

/**
 * Calls of one backend instance. Written only by the thread that
 * owns the backend; read only after that thread has been joined.
 */
struct CallLog
{
    int track = 0;
    std::vector<Call> calls;
};

/** Owns the CallLogs of every backend built through factory(). */
class CallRecorder
{
  public:
    /** @param spans Span sink of the traced run; null = no spans. */
    explicit CallRecorder(SpanLog *spans = nullptr) : spans_(spans) {}

    CallRecorder(const CallRecorder &) = delete;
    CallRecorder &operator=(const CallRecorder &) = delete;

    /**
     * A BackendFactory building @p kind over @p net, wrapped in a
     * TimingBackend whose log track is @p track_base + the factory
     * argument (agent or worker index). @p agent selects routine
     * spans (training) over flat call spans (serving).
     */
    std::function<std::unique_ptr<rl::DnnBackend>(int)>
    factory(rl::BackendKind kind, const fa3c::nn::A3cNetwork &net,
            int track_base, bool agent);

    /** Every log created so far (stable addresses). */
    const std::deque<CallLog> &logs() const { return logs_; }

  private:
    CallLog &newLog(int track);

    SpanLog *spans_;
    std::mutex mutex_;
    std::deque<CallLog> logs_;
};

/** Pass-through decorator that timestamps every call. */
class TimingBackend final : public rl::DnnBackend
{
  public:
    /**
     * @param inner The backend doing the work (owned).
     * @param log   Where calls are recorded (must outlive this).
     * @param spans Span sink, or null for an untraced run.
     * @param agent True for a training agent (routine spans).
     */
    TimingBackend(std::unique_ptr<rl::DnnBackend> inner, CallLog &log,
                  SpanLog *spans, bool agent);

    /** Closes the open routine span, if any. */
    ~TimingBackend() override;

    TimingBackend(const TimingBackend &) = delete;
    TimingBackend &operator=(const TimingBackend &) = delete;

    const fa3c::nn::A3cNetwork &network() const override
    {
        return inner_->network();
    }

    void onParamSync(const fa3c::nn::ParamSet &params) override;

    bool wantsQuantized() const override
    {
        return inner_->wantsQuantized();
    }

    void
    onQuantSync(const fa3c::nn::ParamSet &params,
                std::shared_ptr<const fa3c::nn::QuantizedModel> quant)
        override;

    void forward(const fa3c::nn::ParamSet &params,
                 const fa3c::tensor::Tensor &obs,
                 fa3c::nn::A3cNetwork::Activations &act) override;

    void backward(const fa3c::nn::ParamSet &params,
                  const fa3c::nn::A3cNetwork::Activations &act,
                  const fa3c::tensor::Tensor &g_out,
                  fa3c::nn::ParamSet &grads) override;

    void forwardBatch(
        const fa3c::nn::ParamSet &params,
        std::span<const fa3c::tensor::Tensor *const> obs,
        std::span<fa3c::nn::A3cNetwork::Activations *const> acts)
        override;

  private:
    /** Record one finished call (and its span when traced). */
    void record(CallKind kind, int n, std::int64_t t0,
                std::int64_t t1, const char *name);
    /** Emit the open routine span ending at @p t_end. */
    void closeRoutine(std::int64_t t_end);

    std::unique_ptr<rl::DnnBackend> inner_;
    CallLog &log_;
    SpanLog *spans_;
    bool agent_;
    std::uint64_t routineId_ = 0; ///< open routine span; 0 = none
    std::int64_t routineT0_ = 0;
    std::int64_t lastEnd_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_BACKEND_HH
