/**
 * @file
 * Emulated byte-addressable non-volatile memory.
 *
 * Model: the CPU reads and writes a @e working image through ordinary
 * loads/stores (the device hands out a raw pointer). Durability is a
 * separate @e durable image. `flush(addr, len)` stages the covered
 * cache lines (clwb/clflush); `fence()` copies every staged line from
 * the working image into the durable image (sfence draining the write
 * pipeline to the DIMM). On a crash, the working image is rebuilt
 * from the durable image — optionally keeping a seeded random subset
 * of unflushed dirty lines to model uncontrolled cache eviction.
 *
 * This reproduces the failure semantics the paper's §4 protocols are
 * designed against, on commodity DRAM (the paper itself ran on a
 * Viking NVDIMM, which is architecturally ordinary memory plus
 * flush-controlled durability).
 *
 * Time has one model, the cost of the persistence instructions
 * measured in §6.4. Each flushed line busy-waits `flushLatencyNs` on
 * the flushing core. Each fence then takes a slot in the device's
 * write queue: the slot starts when the queue frees (or now, if it is
 * idle) and lasts `fenceLatencyNs`, and the fence returns when its
 * slot ends. So a lone thread pays the configured latency, concurrent
 * fences on one device queue behind each other (one DIMM's write
 * bandwidth), and fences on different devices overlap. The slot is
 * reserved with one compare-and-swap and no lock is held across the
 * wait, so a preempted thread stalls nobody. The wait sleeps only
 * when the slot ends far away, yields the core while it is near, and
 * spins the last microseconds.
 */

#ifndef ESPRESSO_NVM_NVM_DEVICE_HH
#define ESPRESSO_NVM_NVM_DEVICE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nvm/crash_injector.hh"
#include "util/common.hh"
#include "util/spin.hh"

namespace espresso {

/** Tunables for an NvmDevice. */
struct NvmConfig
{
    /** Busy-wait applied per flushed cache line (models clflush). */
    std::uint64_t flushLatencyNs = 0;

    /**
     * Length of one fence's slot in the device write queue (models
     * sfence + queue drain); see the file comment. Read on every
     * fence, so a change through NvmDevice::config() applies to the
     * next fence. Zero makes a fence cost no time.
     */
    std::uint64_t fenceLatencyNs = 0;

    /** No effect; every fence uses the write-queue model. Kept only
     * so existing callers that still set it compile. */
    bool fenceDrainSerialized = false;

    /**
     * When false, flush/fence perform no latency and no staging and a
     * crash loses everything since the last clean shutdown. Used as
     * the "remove all clflush" baseline of §6.4.
     */
    bool persistenceEnabled = true;
};

/** How a simulated power failure treats unflushed data. */
enum class CrashMode
{
    /** Only fenced data survives (most conservative). */
    kDiscardUnflushed,

    /**
     * Fenced data survives; each other dirty line independently
     * survives with probability 1/2 (seeded), modeling lines that
     * happened to be evicted from the cache before the failure.
     */
    kEvictRandomLines,
};

/** Persistence-event statistics (atomic: flush/fence run
 * concurrently from allocating threads). */
struct NvmStats
{
    std::atomic<std::uint64_t> flushCalls{0};
    std::atomic<std::uint64_t> linesFlushed{0};
    std::atomic<std::uint64_t> fences{0};
};

/** An emulated NVM DIMM. */
class NvmDevice
{
  public:
    /**
     * @param size capacity in bytes (rounded up to a cache line).
     * @param cfg latency/behaviour knobs.
     */
    explicit NvmDevice(std::size_t size, NvmConfig cfg = {});

    NvmDevice(const NvmDevice &) = delete;
    NvmDevice &operator=(const NvmDevice &) = delete;

    std::size_t size() const { return size_; }
    const NvmConfig &config() const { return cfg_; }
    NvmConfig &config() { return cfg_; }

    /** Base of the working image; all managed addresses point here. */
    std::uint8_t *base() { return working_.data(); }
    const std::uint8_t *base() const { return working_.data(); }

    /** Address of byte offset @p off in the working image. */
    Addr
    toAddr(std::size_t off) const
    {
        return reinterpret_cast<Addr>(working_.data()) + off;
    }

    /** Offset of working-image address @p a. */
    std::size_t
    toOffset(Addr a) const
    {
        return a - reinterpret_cast<Addr>(working_.data());
    }

    /** True if @p a points into this device's working image. */
    bool
    contains(Addr a) const
    {
        Addr b = reinterpret_cast<Addr>(working_.data());
        return a >= b && a < b + size_;
    }

    /**
     * Stage the cache lines covering [addr, addr+len) for durability
     * (clwb). Durable only after the next fence(). Staging is
     * per-thread (as clwb/sfence order a single core's stores), so
     * concurrent flushes never contend.
     */
    void flush(Addr addr, std::size_t len);

    /** Commit the calling thread's staged lines to the durable image
     * (sfence). */
    void fence();

    /** flush + fence convenience for a single datum. */
    void
    persist(Addr addr, std::size_t len)
    {
        flush(addr, len);
        fence();
    }

    /** Simulate a power failure; the working image becomes whatever
     * survived, and all staged-but-unfenced state is dropped. */
    void crash(CrashMode mode = CrashMode::kDiscardUnflushed,
               std::uint64_t seed = 1);

    /** Clean shutdown: everything becomes durable (msync + unmount). */
    void shutdownClean();

    /** Write the durable image to @p path. */
    void saveDurable(const std::string &path) const;

    /** Replace both images with the file contents (clean boot). */
    void loadDurable(const std::string &path);

    const NvmStats &stats() const { return stats_; }

    void
    resetStats()
    {
        stats_.flushCalls = 0;
        stats_.linesFlushed = 0;
        stats_.fences = 0;
    }

    /** Fault injection hook; null disables injection. */
    void setInjector(CrashInjector *injector) { injector_ = injector; }
    CrashInjector *injector() { return injector_; }

  private:
    /** One thread's staged line offsets; duplicates are harmless
     * (the commit is an idempotent copy), so a vector beats a hash
     * set here. */
    struct StagingShard
    {
        std::vector<std::size_t> staged;
    };

    void commitLine(std::size_t line_off);

    /** The calling thread's shard for this device (registered on
     * first use). */
    StagingShard &localShard();

    /** Drop every thread's staged lines (crash / clean shutdown /
     * image load — callers are quiesced by contract). */
    void clearAllShards();

    std::size_t size_;
    NvmConfig cfg_;
    std::vector<std::uint8_t> working_;
    std::vector<std::uint8_t> durable_;
    /** Device identity for the thread-local shard cache; never
     * reused across devices. */
    std::uint64_t serial_;
    /** All shards ever handed out, one per touching thread. */
    std::vector<std::unique_ptr<StagingShard>> shards_;
    std::mutex shardMu_;
    /**
     * Striped per-line commit locks: two threads may legally fence
     * the same metadata cache line, so each line's durable copy must
     * be exclusive — but lines hash to independent stripes, so
     * concurrent fences of disjoint data (parallel GC slice workers,
     * allocator TLAB traffic) commit without contending on one
     * global mutex.
     */
    static constexpr std::size_t kCommitStripes = 64;
    std::array<SpinLock, kCommitStripes> commitLocks_;
    /** Steady-clock ns at which the write queue's last reserved
     * fence slot ends. */
    std::atomic<std::uint64_t> queueFreeAtNs_{0};
    NvmStats stats_;
    CrashInjector *injector_ = nullptr;
};

} // namespace espresso

#endif // ESPRESSO_NVM_NVM_DEVICE_HH
