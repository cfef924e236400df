/** @file
 * Concurrency stress tests of the global parameter store, written to
 * run under ThreadSanitizer: threads hammer applyGradients / apply
 * while others snapshot and checkpoint concurrently.
 *
 * The torn-read invariant: state is seeded with every element of
 * theta equal and every element of g equal, and every pushed gradient
 * is uniform, so each RMSProp update moves all elements by the same
 * amount. Any observation in which theta's elements differ is
 * therefore a torn (half-applied) read. rl::GlobalParams promises
 * this for both snapshot() forms and for checkpoint(): the trainers
 * and the parameter server read through the same single mutex.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "nn/a3c_network.hh"
#include "rl/global_params.hh"

using namespace fa3c;

namespace {

constexpr int kPushers = 2;
constexpr int kPushesPerThread = 60;
constexpr std::uint64_t kStepsPerPush = 5;

nn::A3cNetwork &
net()
{
    static nn::A3cNetwork n(nn::NetConfig::tiny(3));
    return n;
}

/** Fill a ParamSet with one value everywhere. */
nn::ParamSet
uniformParams(float value)
{
    nn::ParamSet p = net().makeParams();
    for (float &x : p.flat())
        x = value;
    return p;
}

/** max - min over a float range; 0 iff all elements are equal. */
template <typename Range>
float
spread(const Range &r)
{
    float lo = r[0], hi = r[0];
    for (const float x : r) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    return hi - lo;
}

} // namespace

TEST(GlobalParamsStress, ConcurrentPushSnapshotCheckpointStayTornFree)
{
    rl::GlobalParams params(net(), {}, 1e-2f, 0);
    params.restore(uniformParams(0.5f), uniformParams(0.0f), 0, 0);

    std::atomic<bool> done{false};
    std::atomic<int> torn_snapshots{0};
    std::atomic<int> torn_checkpoints{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kPushers; ++p)
        threads.emplace_back([&params] {
            const nn::ParamSet grads = uniformParams(1.0f);
            for (int i = 0; i < kPushesPerThread; ++i)
                params.applyGradients(grads, kStepsPerPush);
        });

    threads.emplace_back([&] {
        nn::ParamSet local = net().makeParams();
        while (!done.load(std::memory_order_acquire)) {
            params.snapshot(local);
            if (spread(local.flat()) != 0.0f)
                torn_snapshots.fetch_add(1);
        }
    });
    threads.emplace_back([&] {
        nn::ParamSet theta = net().makeParams();
        nn::ParamSet g = net().makeParams();
        std::uint64_t steps = 0, version = 0;
        while (!done.load(std::memory_order_acquire)) {
            params.checkpoint(theta, g, steps, version);
            if (spread(theta.flat()) != 0.0f ||
                spread(g.flat()) != 0.0f)
                torn_checkpoints.fetch_add(1);
        }
    });

    threads[0].join();
    threads[1].join();
    done.store(true, std::memory_order_release);
    threads[2].join();
    threads[3].join();

    EXPECT_EQ(torn_snapshots.load(), 0);
    EXPECT_EQ(torn_checkpoints.load(), 0);
    EXPECT_EQ(params.globalSteps(),
              static_cast<std::uint64_t>(kPushers) * kPushesPerThread *
                  kStepsPerPush);
    // All pushes landed: theta moved strictly below its seed value
    // (each uniform positive gradient subtracts from every word).
    const nn::ParamSet final_theta = params.theta();
    EXPECT_EQ(spread(final_theta.flat()), 0.0f);
    EXPECT_LT(final_theta.flat()[0], 0.5f);
}

TEST(GlobalParamsStress, ConcurrentApplyAndCheckpointStayConsistent)
{
    // The parameter server's access pattern: flat apply() from the
    // connection threads, flat snapshot() for pulls and acks, and the
    // housekeeper's checkpoint(), all against one store.
    rl::GlobalParams params(net(), {}, 1e-2f, 0);
    params.restore(uniformParams(0.5f), uniformParams(0.0f), 0, 0);

    std::atomic<bool> done{false};
    std::atomic<int> torn_checkpoints{0};
    std::atomic<int> torn_snapshots{0};
    std::atomic<int> version_regressions{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kPushers; ++p)
        threads.emplace_back([&params, &version_regressions] {
            const nn::ParamSet grads = uniformParams(1.0f);
            std::uint64_t last = 0;
            for (int i = 0; i < kPushesPerThread; ++i) {
                const std::uint64_t v =
                    params.apply(grads.flat(), kStepsPerPush);
                if (v <= last)
                    version_regressions.fetch_add(1);
                last = v;
            }
        });

    threads.emplace_back([&] {
        nn::ParamSet theta = net().makeParams();
        nn::ParamSet g = net().makeParams();
        std::uint64_t steps = 0, version = 0;
        while (!done.load(std::memory_order_acquire)) {
            params.checkpoint(theta, g, steps, version);
            if (spread(theta.flat()) != 0.0f ||
                spread(g.flat()) != 0.0f ||
                steps != version * kStepsPerPush)
                torn_checkpoints.fetch_add(1);
        }
    });
    threads.emplace_back([&] {
        std::vector<float> flat;
        while (!done.load(std::memory_order_acquire)) {
            params.snapshot(flat);
            if (spread(flat) != 0.0f)
                torn_snapshots.fetch_add(1);
        }
    });

    threads[0].join();
    threads[1].join();
    done.store(true, std::memory_order_release);
    threads[2].join();
    threads[3].join();

    EXPECT_EQ(torn_checkpoints.load(), 0);
    EXPECT_EQ(torn_snapshots.load(), 0);
    EXPECT_EQ(version_regressions.load(), 0);
    EXPECT_EQ(params.version(),
              static_cast<std::uint64_t>(kPushers) * kPushesPerThread);
    EXPECT_EQ(params.globalSteps(),
              static_cast<std::uint64_t>(kPushers) * kPushesPerThread *
                  kStepsPerPush);

    std::vector<float> final_theta;
    params.snapshot(final_theta);
    ASSERT_EQ(final_theta.size(), params.paramCount());
    EXPECT_EQ(spread(final_theta), 0.0f);
    EXPECT_LT(final_theta[0], 0.5f);
}

TEST(GlobalParamsStress, RestoreCheckpointRoundTripUnderLoad)
{
    rl::GlobalParams params(net(), {}, 1e-2f, 0);
    params.restore(uniformParams(1.0f), uniformParams(0.25f), 123, 45);
    EXPECT_EQ(params.globalSteps(), 123u);
    EXPECT_EQ(params.version(), 45u);

    nn::ParamSet theta = net().makeParams();
    nn::ParamSet g = net().makeParams();
    std::uint64_t steps = 0, version = 0;
    params.checkpoint(theta, g, steps, version);
    EXPECT_EQ(steps, 123u);
    EXPECT_EQ(version, 45u);
    EXPECT_EQ(spread(theta.flat()), 0.0f);
    EXPECT_FLOAT_EQ(theta.flat()[0], 1.0f);
    EXPECT_FLOAT_EQ(g.flat()[0], 0.25f);

    // The version resumes from the restored value, not from zero.
    EXPECT_EQ(params.apply(theta.flat(), 5), 46u);
    EXPECT_EQ(params.globalSteps(), 128u);
}
