#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/profile.hh"

using namespace fa3c;

namespace {

/** Toggle profiling for one test and restore the prior state. */
struct ProfGuard
{
    bool saved = obs::profilingEnabled();
    explicit ProfGuard(bool on)
    {
        obs::setProfilingEnabled(on);
        obs::profReset();
    }
    ~ProfGuard()
    {
        obs::profReset();
        obs::setProfilingEnabled(saved);
    }
};

void
spin(std::chrono::microseconds dur)
{
    const auto end = std::chrono::steady_clock::now() + dur;
    while (std::chrono::steady_clock::now() < end) {
    }
}

} // namespace

TEST(ProfScope, RecordsCountAndTime)
{
    ProfGuard guard(true);
    for (int i = 0; i < 3; ++i) {
        FA3C_PROF_SCOPE("test.outer");
        spin(std::chrono::microseconds(200));
    }
    const auto snap = obs::profSnapshot();
    const auto it = snap.find("test.outer");
    ASSERT_NE(it, snap.end());
    EXPECT_EQ(it->second.count, 3u);
    EXPECT_GE(it->second.totalNs, 3u * 200'000u / 2);
    EXPECT_GE(it->second.maxNs, it->second.totalNs / 3);
}

TEST(ProfScope, SelfTimeExcludesChildren)
{
    ProfGuard guard(true);
    {
        FA3C_PROF_SCOPE("test.parent");
        spin(std::chrono::microseconds(100));
        {
            FA3C_PROF_SCOPE("test.child");
            spin(std::chrono::microseconds(400));
        }
    }
    const auto snap = obs::profSnapshot();
    const auto parent = snap.find("test.parent");
    const auto child = snap.find("test.child");
    ASSERT_NE(parent, snap.end());
    ASSERT_NE(child, snap.end());
    // Parent total includes the child, parent self does not.
    EXPECT_GE(parent->second.totalNs, child->second.totalNs);
    EXPECT_LT(parent->second.selfNs(), parent->second.totalNs);
    EXPECT_GE(parent->second.selfNs() + child->second.totalNs,
              parent->second.totalNs / 2);
}

TEST(ProfScope, DisabledRecordsNothing)
{
    ProfGuard guard(false);
    {
        FA3C_PROF_SCOPE("test.disabled");
        spin(std::chrono::microseconds(50));
    }
    const auto snap = obs::profSnapshot();
    const auto it = snap.find("test.disabled");
    if (it != snap.end()) {
        EXPECT_EQ(it->second.count, 0u);
    }
}

TEST(ProfScope, ThreadsMergeIntoSnapshot)
{
    ProfGuard guard(true);
    constexpr int kThreads = 4;
    constexpr int kIters = 25;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            for (int i = 0; i < kIters; ++i) {
                FA3C_PROF_SCOPE("test.worker");
                spin(std::chrono::microseconds(10));
            }
        });
    for (auto &t : threads)
        t.join();
    const auto snap = obs::profSnapshot();
    const auto it = snap.find("test.worker");
    ASSERT_NE(it, snap.end());
    // Retired-thread accumulators must not drop counts.
    EXPECT_EQ(it->second.count,
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ProfScope, ResetClearsCounts)
{
    ProfGuard guard(true);
    {
        FA3C_PROF_SCOPE("test.reset");
    }
    obs::profReset();
    const auto snap = obs::profSnapshot();
    const auto it = snap.find("test.reset");
    if (it != snap.end()) {
        EXPECT_EQ(it->second.count, 0u);
        EXPECT_EQ(it->second.totalNs, 0u);
    }
}

TEST(ProfReport, RendersRecordedSites)
{
    ProfGuard guard(true);
    {
        FA3C_PROF_SCOPE("test.report_site");
        spin(std::chrono::microseconds(20));
    }
    const std::string report = obs::profReport();
    EXPECT_NE(report.find("test.report_site"), std::string::npos);
    EXPECT_NE(report.find("count"), std::string::npos);
}

TEST(ProfReport, EmptyWhenNothingRecorded)
{
    ProfGuard guard(true);
    obs::profReset();
    const std::string report = obs::profReport();
    // Header-only output is fine; no site rows with nonzero counts.
    EXPECT_EQ(report.find("test.never_used"), std::string::npos);
}
