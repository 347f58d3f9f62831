/**
 * @file
 * Unit tests for the NVM emulation: flush/fence durability, crash
 * modes, fault injection, file round-trips, and the fence write-queue
 * timing model. Timing checks use lower bounds, or upper bounds with
 * a wide margin over the modeled time, so they hold under sanitizers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "nvm/nvm_device.hh"
#include "util/logging.hh"

namespace espresso {
namespace {

TEST(NvmDeviceTest, UnflushedWritesDieInACrash)
{
    NvmDevice dev(4096);
    dev.base()[0] = 0xAB;
    dev.crash();
    EXPECT_EQ(dev.base()[0], 0);
}

TEST(NvmDeviceTest, FlushWithoutFenceIsNotDurable)
{
    NvmDevice dev(4096);
    dev.base()[0] = 0xAB;
    dev.flush(dev.toAddr(0), 1);
    dev.crash();
    EXPECT_EQ(dev.base()[0], 0);
}

TEST(NvmDeviceTest, FlushPlusFenceIsDurable)
{
    NvmDevice dev(4096);
    dev.base()[0] = 0xAB;
    dev.base()[100] = 0xCD;
    dev.flush(dev.toAddr(0), 1);
    dev.flush(dev.toAddr(100), 1);
    dev.fence();
    dev.base()[200] = 0xEF; // after the fence: lost
    dev.crash();
    EXPECT_EQ(dev.base()[0], 0xAB);
    EXPECT_EQ(dev.base()[100], 0xCD);
    EXPECT_EQ(dev.base()[200], 0);
}

TEST(NvmDeviceTest, FlushCoversWholeCacheLines)
{
    NvmDevice dev(4096);
    dev.base()[10] = 1;
    dev.base()[63] = 2; // same line as 10
    dev.base()[64] = 3; // next line
    dev.persist(dev.toAddr(10), 1);
    dev.crash();
    EXPECT_EQ(dev.base()[10], 1);
    EXPECT_EQ(dev.base()[63], 2); // dragged in by line granularity
    EXPECT_EQ(dev.base()[64], 0);
}

TEST(NvmDeviceTest, EvictionModeKeepsFencedDataAlways)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        NvmDevice dev(4096);
        dev.base()[0] = 0x11;
        dev.persist(dev.toAddr(0), 1);
        dev.base()[128] = 0x22; // unflushed: may or may not survive
        dev.crash(CrashMode::kEvictRandomLines, seed);
        EXPECT_EQ(dev.base()[0], 0x11) << "seed " << seed;
        EXPECT_TRUE(dev.base()[128] == 0 || dev.base()[128] == 0x22);
    }
}

TEST(NvmDeviceTest, EvictionModeEventuallyEvicts)
{
    // Over many seeds, at least one unflushed line must survive and
    // at least one must die — otherwise the mode is degenerate.
    int survived = 0, died = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        NvmDevice dev(4096);
        dev.base()[128] = 0x22;
        dev.crash(CrashMode::kEvictRandomLines, seed);
        (dev.base()[128] == 0x22 ? survived : died) += 1;
    }
    EXPECT_GT(survived, 0);
    EXPECT_GT(died, 0);
}

TEST(NvmDeviceTest, ShutdownCleanPersistsEverything)
{
    NvmDevice dev(4096);
    dev.base()[77] = 0x42;
    dev.shutdownClean();
    dev.crash();
    EXPECT_EQ(dev.base()[77], 0x42);
}

TEST(NvmDeviceTest, StatsCountFlushesAndFences)
{
    NvmDevice dev(4096);
    dev.flush(dev.toAddr(0), 200); // 4 lines (0..255 rounded)
    dev.fence();
    EXPECT_EQ(dev.stats().flushCalls, 1u);
    EXPECT_EQ(dev.stats().linesFlushed, 4u);
    EXPECT_EQ(dev.stats().fences, 1u);
}

TEST(NvmDeviceTest, PersistenceDisabledIsFreeAndVolatile)
{
    NvmConfig cfg;
    cfg.persistenceEnabled = false;
    NvmDevice dev(4096, cfg);
    dev.base()[0] = 9;
    dev.persist(dev.toAddr(0), 1);
    EXPECT_EQ(dev.stats().linesFlushed, 0u);
    dev.crash();
    EXPECT_EQ(dev.base()[0], 0);
}

TEST(NvmDeviceTest, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/nvm_image.bin";
    {
        NvmDevice dev(4096);
        std::memcpy(dev.base(), "espresso", 8);
        dev.persist(dev.toAddr(0), 8);
        dev.saveDurable(path);
    }
    NvmDevice dev2(4096);
    dev2.loadDurable(path);
    EXPECT_EQ(std::memcmp(dev2.base(), "espresso", 8), 0);
}

TEST(CrashInjectorTest, FiresAtTheArmedEvent)
{
    NvmDevice dev(4096);
    CrashInjector inj;
    dev.setInjector(&inj);
    inj.arm(3);
    dev.flush(dev.toAddr(0), 1); // event 1
    dev.fence();                 // event 2
    EXPECT_THROW(dev.flush(dev.toAddr(0), 1), SimulatedCrash); // 3
    inj.disarm();
    dev.flush(dev.toAddr(0), 1); // counted, no fire
    EXPECT_EQ(inj.eventCount(), 4u);
}

TEST(NvmDeviceTest, OutOfRangeFlushPanics)
{
    NvmDevice dev(4096);
    EXPECT_THROW(dev.flush(dev.toAddr(4095), 16), PanicError);
}

/** Wall time of running @p fn once. */
template <typename Fn>
std::chrono::nanoseconds
timeIt(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::steady_clock::now() - t0;
}

/** Each of @p devs.size() threads fences once on its device (one
 * device may appear repeatedly), all released together; returns the
 * wall time from the release to the last fence's return. */
std::chrono::nanoseconds
fenceConcurrently(const std::vector<NvmDevice *> &devs)
{
    std::atomic<bool> go{false};
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    for (NvmDevice *dev : devs)
        threads.emplace_back([&, dev]() {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            dev->fence();
        });
    while (ready.load() != devs.size())
        std::this_thread::yield();
    return timeIt([&]() {
        go.store(true, std::memory_order_release);
        for (auto &t : threads)
            t.join();
    });
}

TEST(NvmFenceModelTest, ConcurrentFencesOnOneDeviceQueue)
{
    constexpr unsigned kThreads = 4;
    constexpr std::chrono::milliseconds kLatency{2};
    NvmConfig cfg;
    cfg.fenceLatencyNs = std::chrono::nanoseconds(kLatency).count();
    NvmDevice dev(4096, cfg);
    std::vector<NvmDevice *> devs(kThreads, &dev);
    EXPECT_GE(fenceConcurrently(devs), kThreads * kLatency);
    EXPECT_EQ(dev.stats().fences, kThreads);
}

TEST(NvmFenceModelTest, FencesOnDifferentDevicesOverlap)
{
    constexpr unsigned kDevices = 4;
    constexpr std::chrono::milliseconds kLatency{20};
    NvmConfig cfg;
    cfg.fenceLatencyNs = std::chrono::nanoseconds(kLatency).count();
    std::vector<std::unique_ptr<NvmDevice>> owned;
    std::vector<NvmDevice *> devs;
    for (unsigned i = 0; i < kDevices; ++i) {
        owned.push_back(std::make_unique<NvmDevice>(4096, cfg));
        devs.push_back(owned.back().get());
    }
    std::chrono::nanoseconds wall = fenceConcurrently(devs);
    EXPECT_GE(wall, kLatency);
    EXPECT_LT(wall, kLatency * 3 / 2) << "fences on distinct devices "
                                         "must not queue behind each other";
}

TEST(NvmFenceModelTest, LatencyChangeAppliesToTheNextFence)
{
    constexpr std::chrono::milliseconds kLatency{50};
    NvmDevice dev(4096);
    dev.fence(); // zero latency: no queue slot at all
    dev.config().fenceLatencyNs =
        std::chrono::nanoseconds(kLatency).count();
    EXPECT_GE(timeIt([&]() { dev.fence(); }), kLatency);
    dev.config().fenceLatencyNs = 0;
    EXPECT_LT(timeIt([&]() { dev.fence(); }), kLatency);
}

} // namespace
} // namespace espresso
