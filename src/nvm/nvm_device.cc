#include "nvm/nvm_device.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/spin.hh"

namespace espresso {

namespace {

std::atomic<std::uint64_t> g_deviceSerial{1};

/*
 * Wait phases of the fence write-queue model. A fence sleeps only
 * while its slot ends far away (sleep_for overshoots by tens of
 * microseconds), waking early; yields the core while the end is a
 * few microseconds off; and spins the rest.
 */
constexpr std::uint64_t kSleepAboveNs = 200'000;
constexpr std::uint64_t kSleepWakeEarlyNs = 100'000;
constexpr std::uint64_t kYieldAboveNs = 2'000;

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** What one steady-clock read costs: the cheapest of a few
 * back-to-back reads, measured once. */
std::uint64_t
clockReadNs()
{
    static const std::uint64_t ns = [] {
        std::uint64_t best = ~std::uint64_t{0};
        std::uint64_t prev = steadyNowNs();
        for (int i = 0; i < 16; ++i) {
            std::uint64_t now = steadyNowNs();
            best = std::min(best, now - prev);
            prev = now;
        }
        return best;
    }();
    return ns;
}

/**
 * Wait until the steady clock reaches @p end_ns. The wait stops once
 * the next clock read would land past the end, so it ends within one
 * clock read of it (tens of ns on a VM) rather than one read after
 * it.
 */
void
waitUntilNs(std::uint64_t end_ns)
{
    std::uint64_t read_ns = clockReadNs();
    for (std::uint64_t now = steadyNowNs(); now + read_ns < end_ns;
         now = steadyNowNs()) {
        std::uint64_t left = end_ns - now;
        if (left > kSleepAboveNs)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(left - kSleepWakeEarlyNs));
        else if (left > kYieldAboveNs)
            std::this_thread::yield();
    }
}

void
spinFor(std::uint64_t ns)
{
    if (ns == 0)
        return;
    if (ns < 50) {
        // Sub-50ns delays are below the clock-read floor of a timed
        // spin; approximate with a calibrated arithmetic loop
        // (~1ns/iteration on current hardware).
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < ns; ++i)
            sink = sink + 1;
        return;
    }
    spinForNs(ns);
}

} // namespace

NvmDevice::NvmDevice(std::size_t size, NvmConfig cfg)
    : size_(alignUp(size, kCacheLineSize)), cfg_(cfg),
      working_(size_, 0), durable_(size_, 0),
      serial_(g_deviceSerial.fetch_add(1, std::memory_order_relaxed))
{
    if (size == 0)
        fatal("NvmDevice: zero-sized device");
}

NvmDevice::StagingShard &
NvmDevice::localShard()
{
    // Per-thread cache: device serial -> this thread's shard.
    // Serials are never reused, so stale entries for destroyed
    // devices are dead weight, never dangling lookups.
    thread_local std::unordered_map<std::uint64_t, StagingShard *> cache;
    StagingShard *&slot = cache[serial_];
    if (!slot) {
        auto shard = std::make_unique<StagingShard>();
        slot = shard.get();
        std::lock_guard<std::mutex> g(shardMu_);
        shards_.push_back(std::move(shard));
    }
    return *slot;
}

void
NvmDevice::clearAllShards()
{
    std::lock_guard<std::mutex> g(shardMu_);
    for (auto &shard : shards_)
        shard->staged.clear();
}

void
NvmDevice::flush(Addr addr, std::size_t len)
{
    if (!cfg_.persistenceEnabled)
        return;
    if (injector_)
        injector_->onEvent();
    if (len == 0)
        return;

    std::size_t off = toOffset(addr);
    if (off >= size_ || off + len > size_)
        panic("NvmDevice::flush out of range");

    std::vector<std::size_t> &staged = localShard().staged;
    std::size_t first = alignDown(off, kCacheLineSize);
    std::size_t last = alignUp(off + len, kCacheLineSize);
    stats_.flushCalls.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t line = first; line < last; line += kCacheLineSize) {
        if (staged.empty() || staged.back() != line)
            staged.push_back(line);
        stats_.linesFlushed.fetch_add(1, std::memory_order_relaxed);
        spinFor(cfg_.flushLatencyNs);
    }
}

void
NvmDevice::fence()
{
    if (!cfg_.persistenceEnabled)
        return;
    if (injector_)
        injector_->onEvent();
    // The slot is timed from the fence's start: the emulator's own
    // bookkeeping and line copies below overlap the modeled drain
    // instead of adding to it.
    std::uint64_t latency = cfg_.fenceLatencyNs;
    std::uint64_t start = latency == 0 ? 0 : steadyNowNs();
    stats_.fences.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::size_t> &staged = localShard().staged;
    if (!staged.empty()) {
        // Two threads may stage the same line (adjacent metadata
        // words); serialize per line — via its stripe lock — so the
        // durable image never sees a half-merged line, while fences
        // of disjoint lines proceed in parallel.
        for (std::size_t line : staged) {
            SpinGuard g(commitLocks_[(line / kCacheLineSize) %
                                     kCommitStripes]);
            commitLine(line);
        }
    }
    staged.clear();

    // The device's write queue, in virtual time: reserve the slot
    // [max(start, queue free), +latency] and wait for its end. No
    // lock is held across the wait, so a preempted fence holds up
    // nobody: the fences queued behind it wait for its slot, not for
    // it.
    if (latency == 0)
        return;
    std::uint64_t free_at = queueFreeAtNs_.load(std::memory_order_relaxed);
    std::uint64_t end;
    do {
        end = std::max(start, free_at) + latency;
    } while (!queueFreeAtNs_.compare_exchange_weak(
        free_at, end, std::memory_order_relaxed));
    waitUntilNs(end);
}

void
NvmDevice::commitLine(std::size_t line_off)
{
    std::memcpy(durable_.data() + line_off, working_.data() + line_off,
                kCacheLineSize);
}

void
NvmDevice::crash(CrashMode mode, std::uint64_t seed)
{
    clearAllShards();
    if (mode == CrashMode::kEvictRandomLines) {
        // Each dirty-but-unfenced line may have been evicted to the
        // DIMM before power was lost.
        Rng rng(seed);
        for (std::size_t line = 0; line < size_; line += kCacheLineSize) {
            if (std::memcmp(working_.data() + line, durable_.data() + line,
                            kCacheLineSize) != 0 &&
                rng.nextBool()) {
                commitLine(line);
            }
        }
    }
    std::memcpy(working_.data(), durable_.data(), size_);
}

void
NvmDevice::shutdownClean()
{
    clearAllShards();
    std::memcpy(durable_.data(), working_.data(), size_);
}

void
NvmDevice::saveDurable(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("NvmDevice: cannot open " + path + " for writing");
    out.write(reinterpret_cast<const char *>(durable_.data()),
              static_cast<std::streamsize>(size_));
    if (!out)
        fatal("NvmDevice: short write to " + path);
}

void
NvmDevice::loadDurable(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("NvmDevice: cannot open " + path + " for reading");
    in.read(reinterpret_cast<char *>(durable_.data()),
            static_cast<std::streamsize>(size_));
    if (in.gcount() != static_cast<std::streamsize>(size_))
        fatal("NvmDevice: short read from " + path);
    clearAllShards();
    std::memcpy(working_.data(), durable_.data(), size_);
}

} // namespace espresso
