/**
 * @file
 * The shared global parameter set of A3C.
 *
 * Holds the global theta plus the shared RMSProp statistics g (one g
 * word per parameter, exactly what the paper's RMSProp module keeps in
 * DRAM next to the global model). Agents snapshot theta into their
 * local copies (the "parameter sync" task) and apply gradients through
 * the RMSProp update with a linearly annealed learning rate.
 *
 * This is the one global store of the tree: the in-process trainers
 * (A3C, PAAC, GA3C) hold one directly, and the parameter server
 * (dist::PsServer) holds one behind its wire. One mutex covers every
 * update and every read of theta, so a snapshot or a checkpoint never
 * sees half of an apply. The version counter counts applied updates;
 * checkpoints store it as `updates`, and the PS reports it as the
 * parameter version its staleness check compares against.
 */

#ifndef FA3C_RL_GLOBAL_PARAMS_HH
#define FA3C_RL_GLOBAL_PARAMS_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "nn/a3c_network.hh"
#include "nn/params.hh"
#include "nn/rmsprop.hh"
#include "rl/param_service.hh"

namespace fa3c::rl {

/** Thread-safe global theta + shared RMSProp state. */
class GlobalParams : public ParamService
{
  public:
    /**
     * @param net            Network defining the parameter layout.
     * @param rmsprop        Constant rho / epsilon.
     * @param initial_lr     eta at step 0.
     * @param anneal_steps   Steps over which eta decays linearly to 0
     *                       (0 disables annealing).
     */
    GlobalParams(const nn::A3cNetwork &net,
                 const nn::RmspropConfig &rmsprop, float initial_lr,
                 std::uint64_t anneal_steps);

    /** Initialize theta from @p rng (fan-in uniform), zero g. */
    void initialize(sim::Rng &rng);

    /** Number of parameters (fixed by the network layout). */
    std::size_t paramCount() const { return paramCount_; }

    /** Parameter sync: copy the current global theta into @p local. */
    void snapshot(nn::ParamSet &local) override;

    /** Copy the current theta into @p out (resized to paramCount()),
     * the flat form the PS puts on the wire. */
    void snapshot(std::vector<float> &out) const;

    /**
     * Apply one gradient set through shared RMSProp and advance the
     * step counter by @p steps_consumed (which feeds lr annealing).
     *
     * @return The version produced by this update.
     */
    std::uint64_t apply(std::span<const float> grads,
                        std::uint64_t steps_consumed);

    /** apply() over a gradient ParamSet (the agents' push). */
    void
    applyGradients(const nn::ParamSet &grads,
                   std::uint64_t steps_consumed) override
    {
        apply(grads.flat(), steps_consumed);
    }

    /** Total environment steps consumed so far. */
    std::uint64_t
    globalSteps() const override
    {
        return globalSteps_.load(std::memory_order_relaxed);
    }

    /** globalSteps() under the name the benchmark harness calls; goes
     * at the next change to the benchmark. */
    std::uint64_t steps() const { return globalSteps(); }

    /** Updates applied so far (bumped once per apply()). */
    std::uint64_t
    version() const
    {
        return version_.load(std::memory_order_acquire);
    }

    /** Advance the step counter without an update (trainers whose
     * updates are decoupled from stepping, e.g. GA3C). */
    void
    addSteps(std::uint64_t steps)
    {
        globalSteps_.fetch_add(steps, std::memory_order_relaxed);
    }

    /** The learning rate that the next update will use. */
    float currentLearningRate() const;

    /**
     * Mutex-held copy of the global theta. Every cross-thread read
     * (checkpointing, tests, policy-lag probes) goes through this or
     * snapshot(); there is deliberately no raw reference accessor, so
     * a concurrent apply can never be observed half-applied.
     */
    nn::ParamSet theta() const;

    /**
     * Consistent snapshot of the full recoverable state — theta, the
     * RMSProp g statistics, the step counter and the version — under
     * the update mutex, so the image is coherent even while other
     * threads are applying gradients.
     *
     * @p theta_out and @p g_out must have the network's layout.
     */
    void checkpoint(nn::ParamSet &theta_out, nn::ParamSet &g_out,
                    std::uint64_t &steps_out,
                    std::uint64_t &version_out) const;

    /** Restore an image taken by checkpoint(). */
    void restore(const nn::ParamSet &theta, const nn::ParamSet &g,
                 std::uint64_t steps, std::uint64_t version);

  private:
    const nn::A3cNetwork &net_;
    nn::RmspropConfig rmsprop_;
    float initialLr_;
    std::uint64_t annealSteps_;
    std::atomic<std::uint64_t> globalSteps_{0};
    std::atomic<std::uint64_t> version_{0};
    mutable std::mutex mutex_;
    nn::ParamSet theta_;
    nn::ParamSet rmspropG_;
    /** theta_.size(), cached: restore() reassigns theta_ under the
     * mutex, so its size is not readable without it. */
    std::size_t paramCount_;
};

} // namespace fa3c::rl

#endif // FA3C_RL_GLOBAL_PARAMS_HH
