#include "rl/global_params.hh"

#include <algorithm>

namespace fa3c::rl {

GlobalParams::GlobalParams(const nn::A3cNetwork &net,
                           const nn::RmspropConfig &rmsprop,
                           float initial_lr, std::uint64_t anneal_steps)
    : net_(net), rmsprop_(rmsprop), initialLr_(initial_lr),
      annealSteps_(anneal_steps), theta_(net.makeParams()),
      rmspropG_(net.makeParams()), paramCount_(theta_.size())
{
}

void
GlobalParams::initialize(sim::Rng &rng)
{
    std::lock_guard<std::mutex> lock(mutex_);
    net_.initParams(theta_, rng);
    rmspropG_.zero();
}

void
GlobalParams::snapshot(nn::ParamSet &local)
{
    std::lock_guard<std::mutex> lock(mutex_);
    local.copyFrom(theta_);
}

void
GlobalParams::snapshot(std::vector<float> &out) const
{
    out.resize(paramCount_);
    std::lock_guard<std::mutex> lock(mutex_);
    const std::span<const float> flat = theta_.flat();
    std::copy(flat.begin(), flat.end(), out.begin());
}

nn::ParamSet
GlobalParams::theta() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return theta_;
}

void
GlobalParams::checkpoint(nn::ParamSet &theta_out, nn::ParamSet &g_out,
                         std::uint64_t &steps_out,
                         std::uint64_t &version_out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    theta_out.copyFrom(theta_);
    g_out.copyFrom(rmspropG_);
    steps_out = globalSteps_.load(std::memory_order_relaxed);
    version_out = version_.load(std::memory_order_relaxed);
}

void
GlobalParams::restore(const nn::ParamSet &theta, const nn::ParamSet &g,
                      std::uint64_t steps, std::uint64_t version)
{
    std::lock_guard<std::mutex> lock(mutex_);
    theta_.copyFrom(theta);
    rmspropG_.copyFrom(g);
    globalSteps_.store(steps, std::memory_order_relaxed);
    version_.store(version, std::memory_order_release);
}

float
GlobalParams::currentLearningRate() const
{
    if (annealSteps_ == 0)
        return initialLr_;
    const std::uint64_t steps = globalSteps();
    if (steps >= annealSteps_)
        return 0.0f;
    const double frac = 1.0 - static_cast<double>(steps) /
                                  static_cast<double>(annealSteps_);
    return static_cast<float>(initialLr_ * frac);
}

std::uint64_t
GlobalParams::apply(std::span<const float> grads,
                    std::uint64_t steps_consumed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const float lr = currentLearningRate();
    if (lr > 0.0f) {
        nn::rmspropApply(theta_.flat(), rmspropG_.flat(), grads, lr,
                         rmsprop_);
    }
    globalSteps_.fetch_add(steps_consumed, std::memory_order_relaxed);
    return version_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

} // namespace fa3c::rl
