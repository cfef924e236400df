#include "rl/a3c.hh"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "nn/layers.hh"
#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace fa3c::rl {

void
deltaObjective(std::span<const float> probs, int action, float ret,
               float value, float entropy_beta, float value_grad_scale,
               std::span<float> g_out)
{
    const std::size_t num_actions = probs.size();
    FA3C_ASSERT(g_out.size() == num_actions + 1, "deltaObjective size");
    FA3C_ASSERT(action >= 0 &&
                    static_cast<std::size_t>(action) < num_actions,
                "deltaObjective action ", action);

    const float advantage = ret - value;
    const float h = nn::entropy(probs);
    for (std::size_t j = 0; j < num_actions; ++j) {
        // d(-log p_a)/dz_j = p_j - [j == a], scaled by the advantage.
        float g = (probs[j] -
                   (static_cast<std::size_t>(action) == j ? 1.0f : 0.0f)) *
                  advantage;
        // d(-beta H)/dz_j = beta * p_j * (log p_j + H).
        if (probs[j] > 0.0f)
            g += entropy_beta * probs[j] * (std::log(probs[j]) + h);
        g_out[j] = g;
    }
    // Value head: d[ (R - V)^2 ]/dV scaled by value_grad_scale.
    g_out[num_actions] = value_grad_scale * (value - ret);
}

float
clipGradNorm(nn::ParamSet &grads, float max_norm)
{
    double sq = 0.0;
    for (float g : grads.flat())
        sq += static_cast<double>(g) * static_cast<double>(g);
    const float norm = static_cast<float>(std::sqrt(sq));
    if (max_norm > 0.0f && norm > max_norm && norm > 0.0f) {
        const float scale = max_norm / norm;
        for (float &g : grads.flat())
            g *= scale;
    }
    return norm;
}

void
TrainingDiagnostics::record(double mean_entropy, double grad_norm)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entropy_.sample(mean_entropy);
    gradNorm_.sample(grad_norm);
}

sim::Distribution
TrainingDiagnostics::entropy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entropy_;
}

sim::Distribution
TrainingDiagnostics::gradNorm() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return gradNorm_;
}

A3cAgent::A3cAgent(int id, const A3cConfig &cfg,
                   std::unique_ptr<DnnBackend> backend,
                   std::unique_ptr<env::AtariSession> session,
                   ParamService &global, ScoreLog &scores,
                   TrainingDiagnostics &diagnostics)
    : id_(id), cfg_(cfg), backend_(std::move(backend)),
      session_(std::move(session)), global_(global), scores_(scores),
      diagnostics_(diagnostics),
      rng_(cfg.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(id) + 1),
      local_(backend_->network().makeParams()),
      grads_(backend_->network().makeParams()),
      bootstrap_(backend_->network().makeActivations())
{
    rollout_.reserve(static_cast<std::size_t>(cfg_.tMax));
    for (int t = 0; t < cfg_.tMax; ++t)
        rollout_.push_back(backend_->network().makeActivations());
    actions_.resize(static_cast<std::size_t>(cfg_.tMax));
    rewards_.resize(static_cast<std::size_t>(cfg_.tMax));
    values_.resize(static_cast<std::size_t>(cfg_.tMax));
    probs_.assign(static_cast<std::size_t>(cfg_.tMax),
                  std::vector<float>(static_cast<std::size_t>(
                      session_->numActions())));
}

int
A3cAgent::sampleAction(std::span<const float> probs)
{
    // Sample from the categorical distribution over pi.
    float u = rng_.uniformF();
    for (std::size_t a = 0; a < probs.size(); ++a) {
        u -= probs[a];
        if (u <= 0.0f)
            return static_cast<int>(a);
    }
    return static_cast<int>(probs.size()) - 1;
}

bool
A3cAgent::archiveState(sim::StateArchive &ar)
{
    return ar(rng_) && session_->archiveState(ar);
}

int
A3cAgent::runRoutine()
{
    // Simulated crash (fault injection): die at a routine boundary
    // the way a real worker host would — no unwinding, no flushes.
    if (fault::fire(fault::Point::KillAgent)) {
        FA3C_WARN("fault fired: killing agent ", id_, " mid-routine");
        std::_Exit(fault::kKillExitCode);
    }

    const nn::A3cNetwork &net = backend_->network();
    obs::TraceWriter *tw = obs::trace();
    std::string track;
    if (tw)
        track = "RL worker " + std::to_string(id_);
    const double routine_start = tw ? tw->hostNowUs() : 0.0;
    double phase_start = routine_start;

    // Parameter sync task.
    global_.snapshot(local_);
    backend_->onParamSync(local_);
    if (tw) {
        tw->hostCompleteEvent(track, "param-sync", phase_start,
                              tw->hostNowUs());
        phase_start = tw->hostNowUs();
    }

    // t_max inference tasks.
    int steps = 0;
    bool episode_ended = false;
    for (int t = 0; t < cfg_.tMax; ++t) {
        auto &act = rollout_[static_cast<std::size_t>(t)];
        backend_->forward(local_, session_->observation(), act);
        auto &p = probs_[static_cast<std::size_t>(t)];
        nn::softmax(net.policyLogits(act), p);
        const int action = sampleAction(p);
        values_[static_cast<std::size_t>(t)] = net.value(act);
        actions_[static_cast<std::size_t>(t)] = action;

        const auto step = session_->act(action);
        rewards_[static_cast<std::size_t>(t)] = step.clippedReward;
        ++steps;
        if (step.episodeEnd) {
            // Truncate the rollout at the episode boundary; the
            // return bootstraps from 0 instead of V(s_{t+k}).
            scores_.record(global_.globalSteps() +
                               static_cast<std::uint64_t>(steps),
                           session_->lastEpisodeScore(), id_);
            episode_ended = true;
            break;
        }
    }
    const int rollout_len = steps;

    // Bootstrap inference: R = V(s_{t+k}) unless the episode ended.
    float ret = 0.0f;
    if (!episode_ended) {
        backend_->forward(local_, session_->observation(), bootstrap_);
        ret = net.value(bootstrap_);
    }
    if (tw) {
        tw->hostCompleteEvent(track, "inference", phase_start,
                              tw->hostNowUs());
        phase_start = tw->hostNowUs();
    }

    // Training task: host computes the delta-objective per sample; the
    // backend runs BW + GC, accumulating parameter gradients.
    grads_.zero();
    tensor::Tensor g_out(tensor::Shape({net.outSize()}));
    for (int t = rollout_len - 1; t >= 0; --t) {
        ret = rewards_[static_cast<std::size_t>(t)] + cfg_.gamma * ret;
        deltaObjective(probs_[static_cast<std::size_t>(t)],
                       actions_[static_cast<std::size_t>(t)], ret,
                       values_[static_cast<std::size_t>(t)],
                       cfg_.entropyBeta, cfg_.valueGradScale,
                       g_out.data());
        backend_->backward(local_, rollout_[static_cast<std::size_t>(t)],
                           g_out, grads_);
    }

    const float pre_clip_norm =
        clipGradNorm(grads_, cfg_.gradNormClip);
    if (rollout_len > 0) {
        double entropy_sum = 0;
        for (int t = 0; t < rollout_len; ++t)
            entropy_sum +=
                nn::entropy(probs_[static_cast<std::size_t>(t)]);
        diagnostics_.record(entropy_sum / rollout_len, pre_clip_norm);
    }

    // Global update through the shared RMSProp.
    global_.applyGradients(grads_, static_cast<std::uint64_t>(rollout_len));

    if (tw) {
        tw->hostCompleteEvent(track, "train", phase_start,
                              tw->hostNowUs());
        tw->hostCompleteEvent(track, "routine", routine_start,
                              tw->hostNowUs());
    }
    if (obs::MetricsRegistry &m = obs::metrics(); m.enabled()) {
        m.count("rl.a3c", "routines", 1);
        m.count("rl.a3c", "env_steps",
                static_cast<std::uint64_t>(rollout_len));
        m.sample("rl.a3c", "rollout_len", rollout_len);
    }
    return rollout_len;
}

A3cTrainer::A3cTrainer(const nn::A3cNetwork &net, const A3cConfig &cfg,
                       BackendFactory backend_factory,
                       SessionFactory session_factory)
    : net_(net), cfg_(cfg),
      global_(net, cfg.rmsprop, cfg.initialLr, cfg.lrAnnealSteps)
{
    if (!backend_factory)
        backend_factory = [this](int) {
            return makeDnnBackend(cfg_.backend, net_);
        };
    sim::Rng init_rng(cfg_.seed);
    global_.initialize(init_rng);
    for (int i = 0; i < cfg_.numAgents; ++i) {
        agents_.push_back(std::make_unique<A3cAgent>(
            i, cfg_, backend_factory(i), session_factory(i), global_,
            scores_, diagnostics_));
    }
}

TrainingCheckpoint
A3cTrainer::checkpoint(bool include_agent_state)
{
    TrainingCheckpoint ckpt;
    ckpt.algorithm = "a3c";
    ckpt.theta = net_.makeParams();
    ckpt.rmspropG = net_.makeParams();
    global_.checkpoint(ckpt.theta, ckpt.rmspropG, ckpt.globalSteps,
                       ckpt.updates);
    ckpt.scoreTail = scores_.tail(kScoreTailMax);
    if (include_agent_state) {
        ckpt.hasAgentState = true;
        ckpt.agentStates.reserve(agents_.size());
        for (auto &agent : agents_) {
            sim::ByteWriter w;
            sim::StateArchive ar(w);
            agent->archiveState(ar);
            ckpt.agentStates.push_back(w.bytes());
        }
    }
    return ckpt;
}

bool
A3cTrainer::restore(const TrainingCheckpoint &ckpt)
{
    if (ckpt.algorithm != "a3c" ||
        !ckpt.theta.sameLayout(global_.theta()))
        return false;
    if (ckpt.hasAgentState &&
        ckpt.agentStates.size() != agents_.size())
        return false;
    if (ckpt.hasAgentState) {
        for (std::size_t i = 0; i < agents_.size(); ++i) {
            sim::ByteReader r(ckpt.agentStates[i]);
            sim::StateArchive ar(r);
            if (!agents_[i]->archiveState(ar) || r.remaining() != 0)
                return false;
        }
    }
    global_.restore(ckpt.theta, ckpt.rmspropG, ckpt.globalSteps,
                    ckpt.updates);
    scores_.restore(ckpt.scoreTail);
    return true;
}

bool
A3cTrainer::resumeFromFile(const std::string &path)
{
    const std::string &file =
        path.empty() ? cfg_.checkpointPath : path;
    TrainingCheckpoint ckpt;
    ckpt.theta = net_.makeParams();
    ckpt.rmspropG = net_.makeParams();
    return loadCheckpointFromFile(ckpt, file) && restore(ckpt);
}

void
A3cTrainer::maybeCheckpoint(bool include_agent_state)
{
    if (cfg_.checkpointPath.empty())
        return;
    bool due = consumeCheckpointRequest();
    if (cfg_.checkpointEverySteps > 0 &&
        global_.globalSteps() >= nextCheckpointAt_)
        due = true;
    if (!due)
        return;
    saveCheckpointToFile(checkpoint(include_agent_state),
                         cfg_.checkpointPath);
    if (cfg_.checkpointEverySteps > 0) {
        while (nextCheckpointAt_ <= global_.globalSteps())
            nextCheckpointAt_ += cfg_.checkpointEverySteps;
    }
}

void
A3cTrainer::run(std::function<bool()> stop_early)
{
    // Attach to the telemetry plane for the duration of the run: a
    // progress gauge on /metrics and a readiness probe on /readyz.
    obs::TelemetryRegistration telemetry_reg(
        obs::telemetry(),
        [this](obs::PromWriter &w) {
            w.gauge("rl_a3c_global_steps",
                    static_cast<double>(global_.globalSteps()),
                    "environment steps consumed by the A3C trainer");
            w.gauge("rl_a3c_total_steps",
                    static_cast<double>(cfg_.totalSteps),
                    "configured A3C training budget");
        },
        "trainer.a3c",
        [this](std::string &detail) {
            detail = "steps=" +
                     std::to_string(global_.globalSteps()) + "/" +
                     std::to_string(cfg_.totalSteps);
            return true;
        });

    auto should_stop = [&]() {
        if (global_.globalSteps() >= cfg_.totalSteps)
            return true;
        return stop_early && stop_early();
    };

    if (cfg_.checkpointEverySteps > 0)
        nextCheckpointAt_ =
            global_.globalSteps() + cfg_.checkpointEverySteps;

    if (!cfg_.async) {
        // Deterministic round-robin: agents take turns, one routine
        // each. Useful for tests and for bit-exact replays.
        while (!should_stop()) {
            for (auto &agent : agents_) {
                agent->runRoutine();
                maybeCheckpoint(/*include_agent_state=*/true);
                if (should_stop())
                    break;
            }
        }
        return;
    }

    std::vector<std::thread> threads;
    threads.reserve(agents_.size());
    for (auto &agent : agents_) {
        threads.emplace_back([&agent, &should_stop]() {
            while (!should_stop())
                agent->runRoutine();
        });
    }
    // Checkpoint supervisor: while the agent threads run, the calling
    // thread writes periodic/on-signal checkpoints of the global
    // state. Agent rng/session state is deliberately excluded — it is
    // owned by running threads — so async checkpoints are
    // crash-consistent rather than bit-exact (see
    // TrainingCheckpoint::hasAgentState).
    if (!cfg_.checkpointPath.empty()) {
        while (!should_stop()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            maybeCheckpoint(/*include_agent_state=*/false);
        }
    }
    for (auto &t : threads)
        t.join();
}

} // namespace fa3c::rl
