/**
 * @file
 * Per-thread slots of one engine instance.
 *
 * Each thread that touches an engine gets one Slot, keyed by a
 * never-recycled thread token (std::thread::id values can be reused,
 * which would hand a new thread a dead thread's state). Lookups hit a
 * small thread-local cache first, so the hot path takes no lock;
 * clear() drops every slot (crash: their threads are dead or
 * quiesced) and bumps the generation the cache entries carry, so no
 * thread can reach a dropped slot. Entries are not reaped otherwise;
 * growth is bounded by the number of threads that ever touch the
 * instance.
 */

#ifndef ESPRESSO_DB_THREAD_SLOTS_HH
#define ESPRESSO_DB_THREAD_SLOTS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "util/spin.hh"

namespace espresso {
namespace db {

template <typename Slot> class ThreadSlots
{
  public:
    ThreadSlots() : serial_(nextSerial()) {}

    /** The calling thread's slot (created on first use). */
    Slot &
    get()
    {
        std::uint64_t gen = gen_.load(std::memory_order_acquire);
        // Direct-mapped by instance serial: a thread alternating
        // between a sharded engine's members keeps one entry each.
        Cache &c = cache()[serial_ % kCacheWays];
        if (c.serial == serial_ && c.gen == gen)
            return *c.slot;
        SpinGuard g(mu_);
        std::unique_ptr<Slot> &slot = slots_[threadToken()];
        if (!slot)
            slot = std::make_unique<Slot>();
        c = Cache{serial_, gen, slot.get()};
        return *slot;
    }

    /** Drop every slot and invalidate every thread's cache entry. */
    void
    clear()
    {
        SpinGuard g(mu_);
        slots_.clear();
        gen_.fetch_add(1, std::memory_order_release);
    }

  private:
    static constexpr unsigned kCacheWays = 8;

    struct Cache
    {
        std::uint64_t serial = 0;
        std::uint64_t gen = 0;
        Slot *slot = nullptr;
    };

    static Cache *
    cache()
    {
        static thread_local Cache c[kCacheWays];
        return c;
    }

    static std::uint64_t
    nextSerial()
    {
        static std::atomic<std::uint64_t> serial{1};
        return serial.fetch_add(1, std::memory_order_relaxed);
    }

    static std::uint64_t
    threadToken()
    {
        static std::atomic<std::uint64_t> next{1};
        static thread_local std::uint64_t token =
            next.fetch_add(1, std::memory_order_relaxed);
        return token;
    }

    const std::uint64_t serial_;
    std::atomic<std::uint64_t> gen_{0};
    SpinLock mu_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Slot>> slots_;
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_THREAD_SLOTS_HH
