/**
 * @file
 * Persistent Java Heap — the paper's core contribution (§3, §4).
 *
 * A PjhHeap lives inside one NvmDevice and provides:
 *  - pnew-style allocation of managed objects in NVM with the
 *    crash-consistent protocol of §4.1 (top replica persisted before
 *    the header, header persisted before the object is usable);
 *  - the name table (setRoot/getRoot) and Klass segment;
 *  - field/array/object flush APIs (§3.5);
 *  - the three loadable memory-safety levels (§3.4);
 *  - attach-time recovery, allocation-tail repair, and the
 *    remap rebase scan (§3.3) when the heap cannot be mapped at its
 *    address hint;
 *  - root scanning glue so the volatile collectors see NVM→DRAM
 *    references (flexible cross-heap pointers, §3.2).
 *
 * Garbage collection lives in PjhGc; crash recovery in PjhRecovery.
 */

#ifndef ESPRESSO_PJH_PJH_HEAP_HH
#define ESPRESSO_PJH_PJH_HEAP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "heap/mark_bitmap.hh"
#include "heap/volatile_heap.hh"
#include "nvm/nvm_device.hh"
#include "pjh/klass_segment.hh"
#include "pjh/name_table.hh"
#include "pjh/pjh_layout.hh"
#include "pjh/undo_log.hh"
#include "runtime/klass_registry.hh"
#include "runtime/oop.hh"
#include "util/worker_pool.hh"

namespace espresso {

/** Memory-safety level applied when a heap is loaded (§3.4). */
enum class SafetyLevel
{
    /** Volatile out-pointers are the user's problem; O(#Klasses)
     * loading. */
    kUserGuaranteed,

    /** Loading scans the whole heap and nullifies out-pointers;
     * stale accesses become null dereferences. O(#objects). */
    kZeroing,

    /** Stores of non-persistent references into persistentOnly
     * classes are refused by the write barrier. */
    kTypeBased,
};

/** Thrown by the type-based write barrier. */
class MemorySafetyError : public std::runtime_error
{
  public:
    explicit MemorySafetyError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Counters and load-phase timings. The allocation counters are
 * atomic (pnew runs concurrently); the rest are written from
 * single-threaded phases (attach, GC, recovery). */
struct PjhStats
{
    std::atomic<std::uint64_t> allocations{0};
    std::atomic<std::uint64_t> bytesAllocated{0};
    std::uint64_t collections = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t tailRepairs = 0;
    std::uint64_t rebases = 0;
    std::uint64_t lastLoadNs = 0;
    std::uint64_t lastLoadBindNs = 0;
    std::uint64_t lastLoadSafetyNs = 0;
    /** Mutator-visible stop time: the whole collection when STW, the
     * initial + remark/compact pauses when concurrent. */
    std::uint64_t lastGcPauseNs = 0;
    std::uint64_t lastGcMarkNs = 0;
    std::uint64_t lastGcCompactNs = 0;
    std::uint64_t lastGcMarked = 0;
    /** @name Concurrent-cycle observability (0 after an STW cycle) */
    /// @{
    std::uint64_t lastGcConcMarkNs = 0; ///< marking overlapped with mutators
    std::uint64_t lastGcRemarkNs = 0;   ///< final remark pause alone
    std::uint64_t lastGcShaded = 0;     ///< write-barrier shades
    std::uint64_t lastGcFloating = 0;   ///< floating-garbage upper bound
    std::uint64_t markDiscards = 0;     ///< cycles discarded by recovery
    /// @}
};

/**
 * Collection phase a mutator can observe (concurrent mode).
 *
 *  - kIdle: no cycle (or an STW collection, which quiesces mutators
 *    by contract instead of by phase).
 *  - kMarking: snapshot-at-the-beginning marking overlaps mutators;
 *    allocation, root, flush and ref-store APIs proceed under the
 *    write barrier.
 *  - kPaused: a brief safepoint (initial root snapshot, or the final
 *    remark + sliced compaction). Mutator APIs block until it lifts.
 */
enum class GcPhase : unsigned
{
    kIdle = 0,
    kMarking = 1,
    kPaused = 2,
};

/** One attached PJH instance. */
class PjhHeap : public ExternalSpace
{
  public:
    /**
     * Format @p device as a fresh PJH and attach it.
     * @param device backing NVM (must be at least computeLayout()'s
     *        total for @p cfg).
     * @param cfg creation-time sizing.
     * @param registry the runtime's class directory.
     */
    static std::unique_ptr<PjhHeap> create(NvmDevice *device,
                                           const PjhConfig &cfg,
                                           KlassRegistry *registry);

    /**
     * Attach an existing PJH (the loadHeap analog): run recovery if
     * a collection was interrupted, repair the allocation tail after
     * an unclean shutdown, rebase if the mapping moved away from the
     * address hint, reinitialize Klass images in place, and apply
     * @p safety.
     */
    static std::unique_ptr<PjhHeap> attach(NvmDevice *device,
                                           KlassRegistry *registry,
                                           SafetyLevel safety);

    ~PjhHeap() override;

    /** Clean shutdown: everything durable, cleanShutdown flag set. */
    void detach();

    /**
     * @name Allocation (the pnew bytecodes, §3.2 / §4.1)
     *
     * Thread-safe: each thread bumps a private TLAB chunk carved
     * from the shared top under the heap lock. Chunk handoff is
     * crash-consistent — a chunk is formatted as one durable filler
     * object before the top replica publishes it and is then
     * registered in the metadata's TLAB slot table, and every
     * allocation re-establishes a trailing filler over the chunk's
     * unused tail before the object header is persisted. Recovery
     * therefore repairs at most one torn tail per TLAB. STW
     * collections require the caller to ensure no thread allocates
     * during collect(); in concurrent mode allocation overlaps
     * marking (objects are born black) and blocks only during the
     * cycle's brief safepoints.
     */
    /// @{
    Oop allocInstance(const Klass *k);
    Oop allocArray(const Klass *k, std::uint64_t length);

    /** Invoked when the data heap is full; should trigger a
     * collection. Unset → allocation failure is fatal. */
    void setGcTrigger(std::function<void()> trigger);
    /// @}

    /**
     * @name Roots (Table 1)
     *
     * Thread-safe: backed by the striped name table. Lookups are
     * lock-free; publication takes one bucket-range spinlock.
     * Over-long names are never stored, so lookups of them simply
     * miss (setRoot of one is still fatal).
     */
    /// @{
    void setRoot(const std::string &name, Oop obj);
    Oop getRoot(const std::string &name) const;
    bool hasRoot(const std::string &name) const;
    /// @}

    /** @name Persistence guarantee APIs (§3.5) */
    /// @{
    /** Persist one 8-byte field (Field.flush analog). */
    void flushField(Oop obj, std::uint32_t offset);

    /** Persist one array element (Array.flush analog). */
    void flushArrayElement(Oop obj, std::uint64_t index);

    /** Persist all data words of @p obj with a single fence. */
    void flushObject(Oop obj);
    /// @}

    /**
     * Reference store with the write barrier: enforces type-based
     * safety and keeps the NVM→DRAM remembered behaviour observable.
     */
    void storeRef(Oop obj, std::uint32_t offset, Oop value);

    /** Type-based-checked array-element store. */
    void storeRefElement(Oop obj, std::uint64_t index, Oop value);

    /** @name Geometry */
    /// @{
    bool
    containsData(Addr a) const
    {
        return a >= dataBase_ && a < dataBase_ + meta_->dataSize;
    }

    Addr dataBase() const { return dataBase_; }
    Addr dataTop() const { return top_.load(std::memory_order_acquire); }

    /** Bytes below the shared top, including carved-but-unused TLAB
     * chunk tails (they are reclaimed by the next collection). */
    std::size_t dataUsed() const { return dataTop() - dataBase_; }

    std::size_t dataCapacity() const { return meta_->dataSize; }
    /// @}

    /** Walk every live-or-dead user object in allocation order.
     * Filler objects (TLAB tails, repaired gaps) are skipped. */
    void forEachObject(const std::function<void(Oop)> &fn) const;

    /** Walk every reference slot of every object. */
    void forEachRefSlot(const std::function<void(Addr)> &fn) const;

    /** ExternalSpace: slots referencing DRAM (for the volatile GC). */
    void forEachOutRefSlot(const SlotVisitor &visitor) override;

    /** ExternalSpace: DRAM-side SATB deletion barrier — a volatile
     * root slot (handle) dropped @p ref, which may be the last
     * snapshot path into this heap. No-op unless a concurrent cycle
     * is marking and @p ref lands in our data space. */
    void shadeOverwrittenRef(Addr ref) override { shade(ref); }

    /**
     * Full persistent-space collection (System.gc() analog);
     * @p volatile_heap supplies DRAM→NVM roots (may be null).
     *
     * STW mode precondition: mutators are quiesced — no thread may be
     * inside an allocation (or start one) for the duration of the
     * call. The allocation-epoch guard makes a racing allocator panic
     * in debug builds; in release builds the precondition is the
     * caller's responsibility (this documented contract).
     *
     * Concurrent mode (setGcConcurrent) drops that precondition:
     * mutators may allocate and mutate throughout marking; they are
     * only stopped for the initial snapshot and the remark+compact
     * window (see the mode's contract above). Cycles are serialized;
     * a second caller blocks, then runs its own full cycle.
     */
    void collect(VolatileHeap *volatile_heap);

    /**
     * @name GC parallelism knob
     *
     * Worker threads used by the persistent mark and compact phases.
     * 1 (the default) is the classic serial stop-the-world path;
     * higher values fan mark work and compaction slices out across
     * threads, bounded by PjhMetadata::kMaxGcSlices. Defaults to
     * ESPRESSO_GC_THREADS when it is a positive integer (anything
     * else is rejected with a warning), capped the same way; passing
     * 0 restores that default.
     */
    /// @{
    unsigned
    gcThreads() const
    {
        return gcThreads_.load(std::memory_order_relaxed);
    }

    void setGcThreads(unsigned n);
    /// @}

    /**
     * @name Concurrent (SATB) collection mode
     *
     * Off (the default), collect() is the classic stop-the-world
     * cycle. On, collect() runs snapshot-at-the-beginning marking
     * concurrently with mutators: a brief initial pause snapshots the
     * roots and flips the marking phase, marker threads then race
     * mutators under the deletion/insertion write barrier (see
     * storeRef / setRoot / flushField), objects allocated during the
     * cycle are born black, and only the final remark plus the sliced
     * compaction stop mutators. Defaults to ESPRESSO_GC_CONCURRENT
     * when set.
     *
     * Contract while a concurrent cycle is marking:
     *  - reference mutations must go through storeRef /
     *    storeRefElement / setRoot (the barrier shades both the
     *    overwritten and the stored referent); a raw Oop::setRef is
     *    only safe when followed by flushField of the same slot
     *    before the cycle's remark;
     *  - a reference obtained before the cycle began (pnew result,
     *    getRoot) must be stored into a scannable location — or the
     *    compound op wrapped in a MutatorSection, which holds off the
     *    cycle's safepoints — before the thread yields for a full
     *    cycle, since there is no stack scanning.
     */
    /// @{
    bool
    gcConcurrent() const
    {
        return gcConcurrent_.load(std::memory_order_relaxed);
    }

    void
    setGcConcurrent(bool on)
    {
        gcConcurrent_.store(on, std::memory_order_relaxed);
    }

    /** Phase observed by mutators; kIdle during STW collections. */
    GcPhase
    gcPhase() const
    {
        return static_cast<GcPhase>(
            gcPhase_.load(std::memory_order_acquire));
    }

    /** True while marking overlaps mutators (root/alloc/flush ops
     * proceed under the barrier instead of blocking). */
    bool
    markingConcurrently() const
    {
        return gcPhase() == GcPhase::kMarking;
    }

    /**
     * RAII mutator section: while held, a concurrent cycle cannot
     * reach a safepoint (the collector's pause drains all sections
     * first), so raw references stay valid across the bracketed
     * compound operation. Cheap (one atomic inc/dec); may block
     * briefly at entry while a safepoint is in force. Nests with
     * itself and with the allocation guard: guarded ops (pnew,
     * setRoot, flushField, storeRef, ...) called inside a section
     * proceed even as a safepoint is being requested — the collector
     * waits for the outermost bracket to exit.
     */
    class MutatorSection
    {
      public:
        explicit MutatorSection(PjhHeap &h) : h_(h)
        {
            h_.allocGuardEnter();
        }
        ~MutatorSection() { h_.allocGuardExit(); }
        MutatorSection(const MutatorSection &) = delete;
        MutatorSection &operator=(const MutatorSection &) = delete;

      private:
        PjhHeap &h_;
    };
    /// @}

    /**
     * @name Allocation-epoch guard (collect() quiescence check)
     *
     * Every allocation brackets its heap-mutating window with
     * enter/exit; an STW collect() raises the GC-active flag and
     * checks the in-flight count. Both sides use seq_cst so at least
     * one of a racing (allocator, collector) pair observes the other
     * — the race then fails loudly (debug panic) instead of silently
     * corrupting the heap. In release builds the check compiles to
     * nothing beyond the counter and the documented precondition on
     * collect() stands. In concurrent mode the same counter doubles
     * as the safepoint drain: entry spins while the phase is kPaused,
     * and the collector's pause waits for the count to reach zero.
     * Public for the internal RAII bracket; not part of the user API.
     */
    /// @{
    void allocGuardEnter();
    void allocGuardExit();

    /** True while a collect() owns this heap — lets a fabric
     * coordinator (or a test) observe a shard-local pause without
     * racing on the persistent in-collection flag. */
    bool
    collecting() const
    {
        return gcActive_.load(std::memory_order_acquire);
    }
    /// @}

    NvmDevice &device() { return *dev_; }
    PjhMetadata &meta() { return *meta_; }
    UndoLog &undoLog() { return undoLog_; }
    NameTable &names() { return names_; }
    KlassSegment &klasses() { return klasses_; }
    KlassRegistry &registry() { return *registry_; }
    SafetyLevel safety() const { return safety_; }
    const PjhStats &stats() const { return stats_; }
    PjhStats &mutableStats() { return stats_; }

  private:
    friend class PjhGc;
    friend class PjhCompactor;
    friend class PjhRecovery;

    PjhHeap(NvmDevice *device, KlassRegistry *registry);

    static constexpr int kSlotUnassigned = -1;
    /** No slot available: fall back to fully locked allocation. */
    static constexpr int kSlotless = -2;

    /** One thread's private allocation window into this heap. */
    struct ThreadTlab
    {
        Addr bump = 0;              ///< next free byte
        Addr end = 0;               ///< chunk end (exclusive)
        int slot = kSlotUnassigned; ///< metadata TLAB slot index
        std::uint64_t epoch = 0;    ///< tlabEpoch_ at carve time
        /** One-entry pnew resolution cache (klass -> persistent
         * alias + image); hit on ~every allocation of a hot class,
         * skipping two mutexes on the fast path. */
        const Klass *cachedKlass = nullptr;
        const Klass *cachedPk = nullptr;
        Addr cachedImage = 0;
    };

    void setupViews();
    void cacheFillerImages();
    Oop allocRaw(const Klass *k, std::uint64_t length);

    /** This thread's TLAB for this heap instance. */
    ThreadTlab &threadTlab() const;

    /**
     * Reserve @p size bytes in @p t's chunk, re-establishing the
     * durable trailing filler first; carves a new chunk (possibly
     * triggering a collection) when the current one cannot serve the
     * request. Returns kNullAddr when the thread must use the
     * slotless locked path. On return the caller owns [addr,
     * addr+size): bytes past the old filler header are durably zero
     * and the caller must write and persist the object header.
     */
    Addr tlabReserve(ThreadTlab &t, std::size_t size);

    /** Carve and register a fresh chunk of at least @p min_size.
     * False when the thread has no TLAB slot (slotless fallback). */
    bool carveChunk(ThreadTlab &t, std::size_t min_size);

    /** Fully locked, immediately durable allocation for threads
     * beyond the TLAB slot table. */
    Oop allocSlotless(const Klass *pk, Addr image, std::uint64_t length,
                      std::size_t size);

    /** Born-black marking for objects allocated while a concurrent
     * cycle is tracing (caller holds the allocation guard). */
    void bornBlackIfMarking(Addr a, std::size_t size);

    /**
     * Write a filler header covering [a, a+gap) (working image only;
     * the caller persists). The image addresses default to the
     * cached physical ones; repair passes them re-expressed in the
     * stored address space.
     */
    void writeFillerHeader(Addr a, std::size_t gap,
                           Addr instance_image = 0, Addr array_image = 0);

    void repairAllocationTail(std::ptrdiff_t delta);

    /** Overwrite [junk, end) with a filler parseable in the stored
     * address space (repair helper). */
    void plugFillerGap(Addr junk, Addr end, std::ptrdiff_t delta);

    /** Clear and persist every TLAB slot (attach / post-GC). */
    void clearTlabSlots();

    /** Invoke the GC trigger with the allocation-epoch guard
     * released, restoring it even on an exception. */
    void triggerGcOutsideGuard();

    /**
     * @name Concurrent-marking internals (write barrier + safepoint)
     */
    /// @{
    /** Root/flush-op bracket: like the allocation guard but without
     * the STW debug panic — root reads legitimately probe shards that
     * are STW-collecting (the fabric's fallback scan). Blocks while
     * the phase is kPaused. Const: called from const read paths. */
    void rootOpGuardEnter() const;
    void rootOpGuardExit() const;

    /** Spin until the collector lifts the safepoint. */
    void waitWhilePaused() const;

    /**
     * SATB shade: claim @p ref in the mark bitmap and queue it for
     * the markers to scan. No-op unless the phase is kMarking and
     * @p ref is a non-filler data-heap object start. Must be called
     * with an alloc/root-op guard held (the safepoint drain is what
     * keeps a shade from racing the remark's bitmap fixpoint).
     */
    void shade(Addr ref) const;

    /** Shade the current value of @p obj's slot at @p offset iff the
     * Klass image declares a reference field there (flushField can't
     * see the overwritten value, so it shades the stored one). */
    void shadeFieldIfRef(Oop obj, std::uint32_t offset) const;

    /** RAII root-op bracket. */
    struct RootOpGuard
    {
        explicit RootOpGuard(const PjhHeap &h) : h_(h)
        {
            h_.rootOpGuardEnter();
        }
        ~RootOpGuard() { h_.rootOpGuardExit(); }
        RootOpGuard(const RootOpGuard &) = delete;
        RootOpGuard &operator=(const RootOpGuard &) = delete;
        const PjhHeap &h_;
    };
    /// @}

    void rebase(std::ptrdiff_t delta);
    void zeroingScan();
    void checkRefStore(Oop obj, Oop value) const;

    /** Object size via the Klass image, honoring a not-yet-rebased
     * heap (@p delta = physical - stored address). */
    std::size_t rawSizeWithDelta(Oop o, std::ptrdiff_t delta) const;

    NvmDevice *dev_;
    KlassRegistry *registry_;
    PjhMetadata *meta_ = nullptr;
    NameTable names_;
    KlassSegment klasses_;
    Addr dataBase_ = 0;
    std::atomic<Addr> top_{0};
    MarkBitmap marks_;
    BitmapView regionBits_;
    UndoLog undoLog_;
    SafetyLevel safety_ = SafetyLevel::kUserGuaranteed;
    std::function<void()> gcTrigger_;
    PjhStats stats_;

    /** Serializes chunk carving and the shared-top publication. */
    std::mutex topMu_;
    /** Heap identity for the thread-local TLAB map; never reused. */
    std::uint64_t serial_;
    /** Bumped whenever a collection invalidates every TLAB. */
    std::atomic<std::uint64_t> tlabEpoch_{1};
    /** Next free metadata TLAB slot. */
    std::atomic<std::uint32_t> nextTlabSlot_{0};
    /** Chunk size (bytes); meta_->tlabBytes, or ESPRESSO_TLAB_BYTES. */
    std::size_t tlabBytes_ = 0;
    /** GC worker threads (mark + compact); see setGcThreads(). */
    std::atomic<unsigned> gcThreads_{1};
    /** Persistent worker team for the parallel GC phases: reusing
     * threads across collections bounds the per-thread NVM staging
     * shards the device registers and skips thread-start latency. */
    WorkerPool gcPool_;
    /** Allocations currently inside their heap-mutating window. */
    std::atomic<std::uint32_t> allocsInFlight_{0};
    /** True while collect() owns the heap. */
    std::atomic<bool> gcActive_{false};
    /** Serializes whole collection cycles (a mutator-triggered
     * collect that lost the race simply runs after the winner). */
    std::mutex gcCycleMu_;
    /** Concurrent-mode collection phase (GcPhase). */
    std::atomic<unsigned> gcPhase_{0};
    /** Root/flush ops currently inside their bracket. */
    mutable std::atomic<std::uint32_t> rootOpsInFlight_{0};
    /** Concurrent (SATB) mode knob; ESPRESSO_GC_CONCURRENT default. */
    std::atomic<bool> gcConcurrent_{false};
    /** SATB buffer: shaded (already claimed) objects whose children
     * the markers still have to scan. */
    mutable std::mutex satbMu_;
    mutable std::vector<Addr> satbBuffer_;
    /** Per-cycle barrier counters (reset at each cycle's start). */
    mutable std::atomic<std::uint64_t> shadeCount_{0};
    std::atomic<std::uint64_t> bornBlack_{0};
    /** Cached filler KlassImage addresses for walk skipping. */
    Addr fillerInstanceImage_ = 0;
    Addr fillerArrayImage_ = 0;
};

} // namespace espresso

#endif // ESPRESSO_PJH_PJH_HEAP_HH
