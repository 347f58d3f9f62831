/**
 * @file
 * Unit tests for util: alignment, bitmaps, phase timer, RNG, env
 * knobs, the fork/join worker pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "util/bitmap.hh"
#include "util/common.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/phase_timer.hh"
#include "util/rng.hh"
#include "util/worker_pool.hh"

namespace espresso {
namespace {

TEST(AlignTest, RoundTrips)
{
    EXPECT_EQ(alignUp(0, 8), 0u);
    EXPECT_EQ(alignUp(1, 8), 8u);
    EXPECT_EQ(alignUp(8, 8), 8u);
    EXPECT_EQ(alignUp(9, 64), 64u);
    EXPECT_EQ(alignDown(63, 64), 0u);
    EXPECT_EQ(alignDown(64, 64), 64u);
    EXPECT_TRUE(isAligned(128, 64));
    EXPECT_FALSE(isAligned(65, 64));
}

TEST(BitmapTest, SetTestClear)
{
    OwnedBitmap bm(1000);
    EXPECT_FALSE(bm.test(0));
    bm.set(0);
    bm.set(63);
    bm.set(64);
    bm.set(999);
    EXPECT_TRUE(bm.test(0));
    EXPECT_TRUE(bm.test(63));
    EXPECT_TRUE(bm.test(64));
    EXPECT_TRUE(bm.test(999));
    EXPECT_FALSE(bm.test(1));
    bm.clear(63);
    EXPECT_FALSE(bm.test(63));
}

TEST(BitmapTest, SetRangeAndPopcount)
{
    OwnedBitmap bm(512);
    bm.setRange(10, 200);
    EXPECT_EQ(bm.popcount(0, 512), 190u);
    EXPECT_EQ(bm.popcount(10, 200), 190u);
    EXPECT_EQ(bm.popcount(0, 10), 0u);
    EXPECT_EQ(bm.popcount(200, 512), 0u);
    EXPECT_EQ(bm.popcount(50, 60), 10u);
}

TEST(BitmapTest, FindNextSet)
{
    OwnedBitmap bm(700);
    EXPECT_EQ(bm.findNextSet(0, 700), 700u);
    bm.set(5);
    bm.set(130);
    bm.set(699);
    EXPECT_EQ(bm.findNextSet(0, 700), 5u);
    EXPECT_EQ(bm.findNextSet(6, 700), 130u);
    EXPECT_EQ(bm.findNextSet(131, 700), 699u);
    EXPECT_EQ(bm.findNextSet(131, 699), 699u); // excluded => limit
    EXPECT_EQ(bm.findNextSet(700, 700), 700u);
}

TEST(BitmapTest, ClearAll)
{
    OwnedBitmap bm(256);
    bm.setRange(0, 256);
    EXPECT_EQ(bm.popcount(0, 256), 256u);
    bm.clearAll();
    EXPECT_EQ(bm.popcount(0, 256), 0u);
}

TEST(PhaseTimerTest, AccumulatesAndShares)
{
    PhaseTimer t;
    t.add("a", 300);
    t.add("b", 700);
    t.add("a", 100);
    EXPECT_EQ(t.total("a"), 400u);
    EXPECT_EQ(t.total("b"), 700u);
    EXPECT_EQ(t.total("missing"), 0u);
    EXPECT_EQ(t.grandTotal(), 1100u);
    EXPECT_NEAR(t.share("b"), 700.0 / 1100.0, 1e-12);
}

TEST(PhaseTimerTest, ScopeMeasuresSomething)
{
    PhaseTimer t;
    {
        PhaseScope scope(&t, "work");
        volatile int x = 0;
        for (int i = 0; i < 10000; ++i)
            x = x + i;
    }
    EXPECT_GT(t.total("work"), 0u);
    // Null timer must be harmless.
    PhaseScope free_scope(nullptr, "ignored");
}

TEST(RngTest, DeterministicAndBounded)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(a.nextBelow(17), 17u);
        double d = a.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(LoggingTest, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("boom"), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
    EXPECT_EQ(strCat("a", 1, "-", 2.5), "a1-2.5");
}

TEST(EnvTest, UnsignedKnobParsesStrictly)
{
    const char *kName = "ESPRESSO_ENV_TEST_KNOB";

    unsetenv(kName);
    EXPECT_EQ(envUnsigned(kName, 3), 3u);

    setenv(kName, "4", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 4u);
    setenv(kName, "16", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 16u);
    // Trailing whitespace alone is tolerated.
    setenv(kName, "7 ", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 7u);

    // Trailing garbage is rejected, not truncated to its prefix: a
    // mistyped knob falls back instead of quietly resizing things.
    setenv(kName, "4x", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 3u);
    setenv(kName, "16 shards", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 3u);
    setenv(kName, "0x8", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 3u);

    // Non-numeric and non-positive values fall back too.
    setenv(kName, "lots", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 3u);
    setenv(kName, "", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 3u);
    setenv(kName, "-2", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 3u);
    setenv(kName, "0", 1);
    EXPECT_EQ(envUnsigned(kName, 3), 3u);

    unsetenv(kName);
}

TEST(WorkerPoolTest, RethrowsFirstErrorAfterEveryWorkerReturns)
{
    WorkerPool pool;
    std::atomic<unsigned> finished{0};
    auto body = [&](unsigned w) {
        if (w == 2)
            throw std::runtime_error("worker 2");
        // The siblings outlive the thrower: run() must still wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
    };
    try {
        pool.run(4, body);
        FAIL() << "run() swallowed the worker's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker 2");
    }
    EXPECT_EQ(finished.load(), 3u);

    // The error does not leak into the next round.
    std::atomic<unsigned> ran{0};
    pool.run(4, [&](unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4u);
}

TEST(WorkerPoolTest, OneWorkerRunsOnTheCallingThread)
{
    WorkerPool pool;
    std::thread::id ran_on;
    unsigned index = 99;
    pool.run(1, [&](unsigned w) {
        ran_on = std::this_thread::get_id();
        index = w;
    });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    EXPECT_EQ(index, 0u);
    EXPECT_THROW(pool.run(1,
                          [](unsigned) {
                              throw std::runtime_error("inline");
                          }),
                 std::runtime_error);
}

} // namespace
} // namespace espresso
