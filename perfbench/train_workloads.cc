/**
 * @file
 * train_dist and train_local: A3C on Pong with the paper's Atari net
 * and the fast backend, 2 agents, through a parameter server or in
 * one process.
 *
 * The untraced pass first sets the system up kSetups times without
 * training it. A run is then a sequence of trials, each training a
 * fresh system for a fixed step budget, until the measuring time is
 * used up; each trial adds one more set-up time. Once a trial is past
 * the first kWarmShare of its budget, its time is cut into windows of
 * kWindowNs; rates, latencies and CPU are pooled over the windows of
 * the run in which other work took the least CPU.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dist/ps_server.hh"
#include "dist/worker_runner.hh"
#include "env/environment.hh"
#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "obs/metrics.hh"
#include "rl/a3c.hh"
#include "timing_backend.hh"
#include "workloads.hh"

namespace perfbench {

namespace dist = fa3c::dist;
namespace env = fa3c::env;
namespace nn = fa3c::nn;

namespace {

constexpr int kAgents = 2;
constexpr env::GameId kGame = env::GameId::Pong;
/** Env steps per trial: about 2 s of training on a 4-vCPU host. */
constexpr std::uint64_t kLocalBudget = 2000;
constexpr std::uint64_t kDistBudget = 500;
constexpr double kWarmShare = 0.2;
constexpr int kMinTrials = 3;
/** Untraced pass: set-ups without training before the trials. A
 * set-up takes about 10 ms, so one sample per trial is too few for a
 * steady median. */
constexpr int kSetups = 15;
constexpr auto kPollEvery = std::chrono::milliseconds(2);
constexpr std::int64_t kWindowNs = 500'000'000;

nn::NetConfig
atariNet()
{
    return nn::NetConfig::atari(env::makeEnvironment(kGame, 0)->numActions());
}

rl::A3cTrainer::SessionFactory
sessions(const nn::A3cNetwork &net, std::uint64_t base)
{
    return [&net, base](int agent) {
        const nn::NetConfig &nc = net.config();
        env::SessionConfig scfg;
        scfg.frameStack = nc.inChannels;
        scfg.obsHeight = nc.inHeight;
        scfg.obsWidth = nc.inWidth;
        const std::uint64_t s =
            base * 1000003ull + 2ull * static_cast<std::uint64_t>(agent);
        return std::make_unique<env::AtariSession>(
            env::makeEnvironment(kGame, s + 1), scfg, s + 2);
    };
}

/** One window of a trial's steady phase. */
struct Window
{
    std::int64_t t0Ns = 0;
    std::int64_t t1Ns = 0;
    double steps = 0.0;  ///< env steps consumed
    CpuTimes cpu;        ///< process CPU
    double foreignS = 0.0; ///< CPU time other work took
};

/**
 * Polls a step counter until stopped. Past kWarmShare of @p budget it
 * closes a Window every kWindowNs (windows that reach the budget are
 * dropped: agents are winding down). Calls @p on_budget once when the
 * counter reaches the budget.
 */
class StepMonitor
{
  public:
    StepMonitor(std::function<std::uint64_t()> steps, std::uint64_t budget,
                std::function<void()> on_budget = {})
        : steps_(std::move(steps)), budget_(budget),
          onBudget_(std::move(on_budget)), thread_([this] { main(); })
    {
    }

    ~StepMonitor() { stop(); }

    StepMonitor(const StepMonitor &) = delete;
    StepMonitor &operator=(const StepMonitor &) = delete;

    void
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

    /** Closed windows; valid after stop(). */
    const std::vector<Window> &windows() const { return windows_; }

    /** When the warm-up ended (0 if it never did); after stop(). */
    std::int64_t warmNs() const { return warmNs_; }

  private:
    void
    main()
    {
        const auto warm = static_cast<std::uint64_t>(
            kWarmShare * static_cast<double>(budget_));
        bool fired = false;
        Window open;
        std::uint64_t open_steps = 0;
        double open_busy = 0.0;
        while (!stop_.load()) {
            const std::uint64_t s = steps_();
            const std::int64_t now = nowNs();
            if (!fired && onBudget_ && s >= budget_) {
                onBudget_();
                fired = true;
            }
            const bool due = warmNs_ != 0 && now - open.t0Ns >= kWindowNs;
            if ((warmNs_ == 0 && s >= warm) || due) {
                const CpuTimes cpu = cpuNow();
                const double busy = hostBusySeconds();
                if (due && s < budget_)
                    windows_.push_back(
                        {open.t0Ns, now,
                         static_cast<double>(s - open_steps),
                         {cpu.userS - open.cpu.userS,
                          cpu.sysS - open.cpu.sysS},
                         busy - open_busy -
                             (cpu.total() - open.cpu.total())});
                if (warmNs_ == 0)
                    warmNs_ = now;
                open = {now, now, 0.0, cpu, 0.0};
                open_steps = s;
                open_busy = busy;
            }
            std::this_thread::sleep_for(kPollEvery);
        }
    }

    std::function<std::uint64_t()> steps_;
    std::uint64_t budget_;
    std::function<void()> onBudget_;
    std::vector<Window> windows_;
    std::int64_t warmNs_ = 0;
    std::atomic<bool> stop_{false};
    std::thread thread_; ///< last: starts after the members it reads
};

/** What one trial measured. */
struct Trial
{
    double setupS = 0.0;
    std::uint64_t steps = 0;
    std::uint64_t pushes = 0;
    std::uint64_t rejects = 0;
    std::int64_t warmNs = 0;
    std::vector<Window> windows;
    std::unique_ptr<CallRecorder> calls;

    void
    take(const StepMonitor &m)
    {
        windows = m.windows();
        warmNs = m.warmNs();
    }
};

bool
allFinite(std::span<const float> v)
{
    return std::all_of(v.begin(), v.end(),
                       [](float x) { return std::isfinite(x); });
}

std::uint64_t
countCalls(const CallRecorder &rec, CallKind kind)
{
    std::uint64_t n = 0;
    for (const CallLog &log : rec.logs())
        for (const Call &c : log.calls)
            n += c.kind == kind ? 1 : 0;
    return n;
}

/** Set up a fresh system and, unless @p setup_only, train it for the
 * budget and check the result. */
Trial
localTrial(const nn::A3cNetwork &net, std::uint64_t base, SpanLog *spans,
           PassResult &res, bool setup_only)
{
    Trial t;
    t.calls = std::make_unique<CallRecorder>(spans);
    rl::A3cConfig cfg;
    cfg.numAgents = kAgents;
    cfg.totalSteps = kLocalBudget;
    cfg.seed = base;
    cfg.backend = rl::BackendKind::FastCpu;

    const std::int64_t t0 = nowNs();
    auto trainer = std::make_unique<rl::A3cTrainer>(
        net, cfg,
        t.calls->factory(rl::BackendKind::FastCpu, net, 0, /*agent=*/true),
        sessions(net, base));
    t.setupS = static_cast<double>(nowNs() - t0) / 1e9;
    if (setup_only)
        return t;

    rl::GlobalParams &global = trainer->globalParams();
    {
        StepMonitor monitor([&global] { return global.globalSteps(); },
                            kLocalBudget);
        trainer->run();
        monitor.stop();
        t.take(monitor);
    }
    t.steps = global.globalSteps();
    nn::ParamSet theta = net.makeParams();
    global.snapshot(theta);
    if (!allFinite(theta.flat()))
        res.violation("final theta is not finite");
    trainer.reset(); // closes the agents' routine spans
    t.pushes = countCalls(*t.calls, CallKind::Sync);
    return t;
}

Trial
distTrial(const nn::A3cNetwork &net, std::uint64_t base, SpanLog *spans,
          PassResult &res, bool setup_only)
{
    Trial t;
    t.calls = std::make_unique<CallRecorder>(spans);
    const std::int64_t t0 = nowNs();
    dist::PsServerConfig pcfg;
    pcfg.seed = base;
    dist::PsServer ps(net, pcfg);
    if (!ps.start()) {
        res.violation("parameter server failed to start");
        return t;
    }
    std::vector<std::unique_ptr<dist::WorkerRunner>> workers;
    for (int w = 0; w < kAgents; ++w) {
        dist::WorkerConfig wcfg;
        wcfg.port = ps.port();
        wcfg.name = "perfbench-w" + std::to_string(w);
        wcfg.game = "pong";
        wcfg.a3c.numAgents = 1;
        wcfg.a3c.backend = rl::BackendKind::FastCpu;
        wcfg.a3c.seed = base + 1 + static_cast<std::uint64_t>(w);
        workers.push_back(std::make_unique<dist::WorkerRunner>(
            net, wcfg,
            t.calls->factory(rl::BackendKind::FastCpu, net, 10 * w,
                             /*agent=*/true),
            sessions(net, base * 2 + 1 + static_cast<std::uint64_t>(w))));
    }
    std::vector<std::thread> threads;
    std::atomic<int> joined_ok{0};
    for (auto &w : workers)
        threads.emplace_back([&w, &joined_ok] {
            if (w->run())
                joined_ok.fetch_add(1);
        });
    // Set-up ends when every worker holds a lease and its first theta.
    while (ps.stats().joined < static_cast<std::uint64_t>(kAgents) &&
           nowNs() - t0 < 30'000'000'000ll)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    t.setupS = static_cast<double>(nowNs() - t0) / 1e9;
    if (setup_only) {
        for (auto &w : workers)
            w->requestStop();
        for (auto &th : threads)
            th.join();
        ps.stop();
        return t;
    }

    // The benchmark stops the workers itself once the budget is
    // reached (rather than the PS's totalSteps), so no push is
    // refused for arriving after the end of training.
    {
        StepMonitor monitor([&ps] { return ps.params().steps(); },
                            kDistBudget, [&workers] {
                                for (auto &w : workers)
                                    w->requestStop();
                            });
        for (auto &th : threads)
            th.join();
        monitor.stop();
        t.take(monitor);
    }
    if (joined_ok.load() != kAgents)
        res.violation("a worker failed to join the parameter server");

    const auto stats = ps.stats();
    t.steps = stats.steps;
    t.pushes = stats.pushes;
    t.rejects = stats.pushRejects;
    if (stats.version != stats.pushes)
        res.violation("PS version " + std::to_string(stats.version) +
                      " != accepted pushes " + std::to_string(stats.pushes));
    std::vector<float> theta;
    ps.params().snapshot(theta);
    if (!allFinite(theta))
        res.violation("final theta is not finite");
    ps.stop();
    return t;
}

/** The windows a run's results are pooled over, as [t0, t1) spans. */
class KeptWindows
{
  public:
    explicit KeptWindows(std::vector<Window> kept) : kept_(std::move(kept))
    {
        std::sort(kept_.begin(), kept_.end(),
                  [](const Window &a, const Window &b) {
                      return a.t0Ns < b.t0Ns;
                  });
    }

    bool
    contains(std::int64_t t) const
    {
        auto it = std::upper_bound(
            kept_.begin(), kept_.end(), t,
            [](std::int64_t x, const Window &w) { return x < w.t0Ns; });
        return it != kept_.begin() && t < std::prev(it)->t1Ns;
    }

    const std::vector<Window> &windows() const { return kept_; }

  private:
    std::vector<Window> kept_;
};

/** Duration (us) of every call of @p kind that started in a kept
 * window. */
std::vector<double>
callUs(const std::vector<Trial> &trials, const KeptWindows &kept,
       CallKind kind)
{
    std::vector<double> v;
    for (const Trial &t : trials)
        for (const CallLog &log : t.calls->logs())
            for (const Call &c : log.calls)
                if (c.kind == kind && kept.contains(c.t0Ns))
                    v.push_back(static_cast<double>(c.t1Ns - c.t0Ns) / 1e3);
    return v;
}

PassResult
runTrain(bool distributed, const PassConfig &cfg)
{
    PassResult res;
    const nn::A3cNetwork net(atariNet());
    const bool traced = cfg.spans != nullptr;
    const std::uint64_t budget = distributed ? kDistBudget : kLocalBudget;
    auto trial = [&](std::uint64_t base, bool setup_only) {
        return distributed
                   ? distTrial(net, base, cfg.spans, res, setup_only)
                   : localTrial(net, base, cfg.spans, res, setup_only);
    };
    std::vector<double> setup_s;
    if (!traced)
        for (int i = 0; i < kSetups; ++i)
            setup_s.push_back(
                trial(cfg.seed * 1000 + static_cast<std::uint64_t>(i), true)
                    .setupS);
    // The dist histograms are read from obs::metrics(). Enabling it
    // also turns on the program's own kernel timers and rl.a3c
    // counters, so it is on only where those histograms are needed.
    const bool program_metrics = traced && distributed;
    if (program_metrics)
        fa3c::obs::metrics().setEnabled(true);

    std::vector<Trial> trials;
    const std::int64_t start = nowNs();
    const auto measure_ns = static_cast<std::int64_t>(cfg.seconds * 1e9);
    while (static_cast<int>(trials.size()) < kMinTrials ||
           nowNs() - start < measure_ns) {
        const std::uint64_t base =
            cfg.seed * 1000 + static_cast<std::uint64_t>(trials.size());
        trials.push_back(trial(base, false));
        const Trial &t = trials.back();
        if (t.steps < budget)
            res.violation("trial stopped at " + std::to_string(t.steps) +
                          " steps, below the budget of " +
                          std::to_string(budget));
        res.attempted += t.pushes + t.rejects;
        res.succeeded += t.pushes;
        res.failed += t.rejects;
    }
    if (program_metrics)
        fa3c::obs::metrics().setEnabled(false);

    // Every trial gives a set-up time; everything else is pooled over
    // the windows of the run in which other work took the least CPU
    // (quietest()).
    std::vector<double> window_foreign;
    std::vector<Window> all_windows;
    for (const Trial &t : trials) {
        setup_s.push_back(t.setupS);
        for (const Window &w : t.windows) {
            all_windows.push_back(w);
            window_foreign.push_back(w.foreignS);
        }
    }
    if (all_windows.empty()) {
        res.violation("no trial reached its steady phase");
        return res;
    }
    std::vector<Window> kept_list;
    for (const std::size_t i : quietest(window_foreign))
        kept_list.push_back(all_windows[i]);
    const KeptWindows kept(std::move(kept_list));

    double all_seconds = 0.0, all_steps = 0.0;
    for (const Window &w : all_windows) {
        all_seconds += static_cast<double>(w.t1Ns - w.t0Ns) / 1e9;
        all_steps += w.steps;
    }
    double seconds = 0.0, steps = 0.0, forwards = 0.0, foreign_s = 0.0;
    CpuTimes cpu;
    for (const Window &w : kept.windows()) {
        seconds += static_cast<double>(w.t1Ns - w.t0Ns) / 1e9;
        steps += w.steps;
        cpu.userS += w.cpu.userS;
        cpu.sysS += w.cpu.sysS;
        foreign_s += w.foreignS;
    }
    std::vector<double> lat_ms, publish_ms;
    for (const Trial &t : trials) {
        for (const CallLog &log : t.calls->logs()) {
            // Action latency: gap between an agent's successive
            // policy forwards. Publish latency: last BW of a routine
            // to the end of the next parameter sync (global update or
            // push round trip, snapshot, staging).
            std::int64_t last_fw = 0, last_bw = 0;
            for (const Call &c : log.calls) {
                if (c.kind == CallKind::Forward) {
                    if (kept.contains(c.t0Ns)) {
                        forwards += 1.0;
                        if (last_fw >= t.warmNs && last_fw > 0)
                            lat_ms.push_back(
                                static_cast<double>(c.t0Ns - last_fw) / 1e6);
                    }
                    last_fw = c.t0Ns;
                } else if (c.kind == CallKind::Backward) {
                    last_bw = c.t1Ns;
                } else if (c.kind == CallKind::Sync) {
                    if (last_bw > 0 && kept.contains(c.t1Ns))
                        publish_ms.push_back(
                            static_cast<double>(c.t1Ns - last_bw) / 1e6);
                    last_bw = 0;
                }
            }
        }
    }
    const double rate = steps / seconds;
    res.primary = rate;
    res.primaryHigherIsBetter = true;

    if (!traced) {
        res.setMedian("setup_s", setup_s);
        // Every forward is one policy inference (the paper's IPS):
        // one per env step plus the bootstrap of each routine.
        res.set("throughput_ips", forwards / seconds);
        res.set("steps_per_s", rate);
        res.set("latency_p50_ms", tail(lat_ms, 50.0));
        res.set("latency_p99_ms", tail(lat_ms, 99.0));
        res.set("publish_p50_ms", tail(publish_ms, 50.0));
        res.set("cpu_ms_per_op", steps > 0.0 ? cpu.total() * 1e3 / steps : 0.0);
        res.set("peak_rss_mb", peakRssMb());
        res.set("host.foreign_share_kept",
                foreign_s / (seconds * std::thread::hardware_concurrency()));
        // Steps/s of the kept windows over that of all windows: far
        // from 1 means the kept windows follow the load.
        res.set("host.kept_ops_ratio",
                all_steps > 0.0 ? rate * all_seconds / all_steps : 0.0);
        return res;
    }

    res.set("cpu.sys_share", cpu.total() > 0.0 ? cpu.sysS / cpu.total() : 0.0);
    res.set("backend.fw_us_p50", tail(callUs(trials, kept, CallKind::Forward), 50.0));
    res.set("backend.bw_us_p50", tail(callUs(trials, kept, CallKind::Backward), 50.0));
    res.set("backend.sync_us_p50", tail(callUs(trials, kept, CallKind::Sync), 50.0));

    // Routine spans that start in a kept window; self time is the
    // part not covered by backend calls (env, parameter plane, host
    // math).
    const std::vector<Span> all = cfg.spans->spans();
    const std::vector<std::int64_t> self = selfTimesNs(all);
    std::vector<double> routine_ms, outside_ms, backend_ms;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (std::strcmp(all[i].name, "agent.routine") != 0 ||
            !kept.contains(all[i].t0Ns))
            continue;
        const double total = static_cast<double>(all[i].t1Ns - all[i].t0Ns) / 1e6;
        const double own = static_cast<double>(self[i]) / 1e6;
        routine_ms.push_back(total);
        outside_ms.push_back(own);
        backend_ms.push_back(total - own);
    }
    res.set("agent.routine_ms_p50", tail(routine_ms, 50.0));
    res.set("agent.routine_ms_p99", tail(routine_ms, 99.0));
    res.set("agent.outside_ms_p50", tail(outside_ms, 50.0));
    res.set("agent.routine_ms_mean", mean(routine_ms));
    res.set("agent.backend_ms_mean", mean(backend_ms));
    res.set("agent.outside_ms_mean", mean(outside_ms));

    if (distributed) {
        std::uint64_t pushes = 0, rejects = 0, all_steps = 0;
        for (const Trial &t : trials) {
            pushes += t.pushes;
            rejects += t.rejects;
            all_steps += t.steps;
        }
        res.set("dist.accept_ratio",
                pushes + rejects ? static_cast<double>(pushes) /
                                       static_cast<double>(pushes + rejects)
                                 : 0.0);
        // Computed: each push carries the gradients and its ack the
        // fresh theta, both one float per parameter.
        res.set("dist.bytes_per_step",
                all_steps ? 2.0 * sizeof(float) *
                                static_cast<double>(net.paramCount()) *
                                static_cast<double>(pushes) /
                                static_cast<double>(all_steps)
                          : 0.0);
        fa3c::obs::metrics().forEachGroup(
            [&res](const std::string &name, const fa3c::sim::StatGroup &g) {
                if (name != "dist")
                    return;
                auto pct = [&g](const char *dist, double want) {
                    const auto it = g.distributions().find(dist);
                    Quantile q;
                    if (it == g.distributions().end())
                        return q;
                    q.n = it->second.count();
                    q.pct = supportedPercentile(q.n, want);
                    q.value = it->second.percentile(q.pct);
                    return q;
                };
                res.set("dist.push_rtt_us_p50", pct("push_rtt_us", 50.0));
                res.set("dist.push_rtt_us_p99", pct("push_rtt_us", 99.0));
                res.set("dist.apply_us_p50", pct("apply_us", 50.0));
                const auto st = g.distributions().find("push_staleness");
                if (st != g.distributions().end())
                    res.metrics["dist.staleness_mean"] = {
                        st->second.mean(), st->second.count(), 0.0};
            });
    }
    return res;
}

} // namespace

PassResult
runTrainDist(const PassConfig &cfg)
{
    return runTrain(true, cfg);
}

PassResult
runTrainLocal(const PassConfig &cfg)
{
    return runTrain(false, cfg);
}

} // namespace perfbench
