#include "pjh/pjh_heap.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pjh/pjh_gc.hh"
#include "pjh/pjh_recovery.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace espresso {

namespace {

/** Zero-field class used to plug sub-array-sized allocation holes. */
constexpr const char *kFillerClassName = "espresso.Filler";

/** Variable-length filler covering TLAB tails and repaired gaps.
 * Deliberately non-canonical so heap walks can tell it apart from
 * user "[J" arrays. */
constexpr const char *kFillerArrayClassName = "espresso.Filler[]";

// Every allocation covers at least an instance header, which is what
// lets tail repair assume any gap it must plug can hold a filler
// header (see plugFillerGap).
static_assert(ObjectLayout::kHeaderSize >= 2 * kWordSize,
              "filler headers need mark + klass words");
static_assert(ObjectLayout::kArrayHeaderSize ==
                  ObjectLayout::kHeaderSize + kWordSize,
              "gap classification below assumes one length word");

std::atomic<std::uint64_t> g_heapSerial{1};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::size_t
tlabBytesFromEnv(std::size_t stored)
{
    // A rejected or absent knob keeps the stored chunk size.
    auto fallback = static_cast<unsigned>(std::min<std::size_t>(
        stored, std::numeric_limits<unsigned>::max()));
    return alignUp(envUnsigned("ESPRESSO_TLAB_BYTES", fallback), kWordSize);
}

/** The GC worker count a heap can run: no more than the slice plan
 * holds. */
unsigned
clampGcThreads(unsigned n)
{
    return std::min(n, static_cast<unsigned>(PjhMetadata::kMaxGcSlices));
}

unsigned
gcThreadsFromEnv()
{
    return clampGcThreads(envUnsigned("ESPRESSO_GC_THREADS", 1));
}

bool
gcConcurrentFromEnv()
{
    if (const char *s = std::getenv("ESPRESSO_GC_CONCURRENT"))
        return s[0] != '\0' && s[0] != '0';
    return false;
}

/** RAII allocation-epoch bracket (see allocGuardEnter). */
struct AllocGuard
{
    explicit AllocGuard(PjhHeap &h) : h_(h) { h_.allocGuardEnter(); }
    ~AllocGuard() { h_.allocGuardExit(); }
    AllocGuard(const AllocGuard &) = delete;
    AllocGuard &operator=(const AllocGuard &) = delete;

    PjhHeap &h_;
};

/**
 * Per-thread re-entrancy depths for the allocation-epoch guard,
 * keyed by heap. A thread already inside its own epoch (a
 * MutatorSection, or a guarded op calling another) must not back out
 * at a safepoint request: the collector's drain is waiting for *this*
 * thread, so backing out and spinning would deadlock. A slot is live
 * only while its depth is non-zero, so a destroyed heap can never be
 * observed through a stale slot.
 */
struct GuardTls
{
    static constexpr int kSlots = 8;
    const void *heap[kSlots] = {};
    unsigned depth[kSlots] = {};
};
thread_local GuardTls t_guardTls;

unsigned *
guardDepthFind(const void *h)
{
    for (int i = 0; i < GuardTls::kSlots; ++i)
        if (t_guardTls.heap[i] == h && t_guardTls.depth[i] > 0)
            return &t_guardTls.depth[i];
    return nullptr;
}

unsigned &
guardDepthClaim(const void *h)
{
    for (int i = 0; i < GuardTls::kSlots; ++i)
        if (t_guardTls.heap[i] == h && t_guardTls.depth[i] > 0)
            return t_guardTls.depth[i];
    for (int i = 0; i < GuardTls::kSlots; ++i) {
        if (t_guardTls.depth[i] == 0) {
            t_guardTls.heap[i] = h;
            return t_guardTls.depth[i];
        }
    }
    panic("PJH: guard sections nested across too many heaps");
}

} // namespace

PjhHeap::PjhHeap(NvmDevice *device, KlassRegistry *registry)
    : dev_(device), registry_(registry),
      serial_(g_heapSerial.fetch_add(1, std::memory_order_relaxed))
{
    gcThreads_.store(gcThreadsFromEnv(), std::memory_order_relaxed);
    gcConcurrent_.store(gcConcurrentFromEnv(), std::memory_order_relaxed);
}

void
PjhHeap::setGcThreads(unsigned n)
{
    // 0 restores the default.
    gcThreads_.store(n == 0 ? gcThreadsFromEnv() : clampGcThreads(n),
                     std::memory_order_relaxed);
}

void
PjhHeap::allocGuardEnter()
{
    unsigned &depth = guardDepthClaim(this);
    if (depth > 0) {
        // Re-entrant: this thread already holds the epoch, so a
        // pending safepoint is waiting on *us* — proceed even while
        // kPaused instead of backing out (which would deadlock the
        // collector's drain against our own outer bracket).
        ++depth;
        allocsInFlight_.fetch_add(1, std::memory_order_seq_cst);
        return;
    }
    for (;;) {
        allocsInFlight_.fetch_add(1, std::memory_order_seq_cst);
        unsigned ph = gcPhase_.load(std::memory_order_seq_cst);
        if (ph == static_cast<unsigned>(GcPhase::kPaused)) {
            // A concurrent cycle's safepoint is in force: back out so
            // the collector's drain completes, wait it out, retry.
            allocsInFlight_.fetch_sub(1, std::memory_order_seq_cst);
            waitWhilePaused();
            continue;
        }
        if (ph == static_cast<unsigned>(GcPhase::kIdle) &&
            gcActive_.load(std::memory_order_seq_cst)) {
#ifndef NDEBUG
            allocsInFlight_.fetch_sub(1, std::memory_order_seq_cst);
            panic("PJH: pnew raced collect(); STW collections "
                  "require quiesced mutators");
#endif
        }
        depth = 1;
        return;
    }
}

void
PjhHeap::allocGuardExit()
{
    if (unsigned *depth = guardDepthFind(this))
        --*depth;
    allocsInFlight_.fetch_sub(1, std::memory_order_seq_cst);
}

void
PjhHeap::waitWhilePaused() const
{
    while (gcPhase_.load(std::memory_order_acquire) ==
           static_cast<unsigned>(GcPhase::kPaused)) {
        // Die with a simulated power failure instead of spinning on a
        // safepoint whose collector was killed by one.
        CrashInjector *inj = dev_->injector();
        if (inj && inj->tripped())
            throw SimulatedCrash();
        std::this_thread::yield();
    }
}

void
PjhHeap::rootOpGuardEnter() const
{
    // Inside this thread's own allocation epoch (a MutatorSection
    // bracketing a compound op) a pending safepoint waits for us, so
    // the root op proceeds even while kPaused — see allocGuardEnter.
    const bool in_own_epoch = guardDepthFind(this) != nullptr;
    for (;;) {
        rootOpsInFlight_.fetch_add(1, std::memory_order_seq_cst);
        if (in_own_epoch ||
            gcPhase_.load(std::memory_order_seq_cst) !=
                static_cast<unsigned>(GcPhase::kPaused)) {
            // No STW check here: root reads legitimately probe shards
            // that are STW-collecting (the fabric's fallback scan
            // visits every member); that contract is the caller's.
            return;
        }
        rootOpsInFlight_.fetch_sub(1, std::memory_order_seq_cst);
        waitWhilePaused();
    }
}

void
PjhHeap::rootOpGuardExit() const
{
    rootOpsInFlight_.fetch_sub(1, std::memory_order_seq_cst);
}

void
PjhHeap::shade(Addr ref) const
{
    if (gcPhase_.load(std::memory_order_acquire) !=
        static_cast<unsigned>(GcPhase::kMarking))
        return;
    if (ref == kNullAddr || !containsData(ref))
        return;
    // Marked-test *before* the header reads: a ref published during
    // the cycle points at an already-marked object (born black or
    // shaded on store) whose header may still be in flight from this
    // thread's perspective; an unmarked object is pre-snapshot and
    // fully visible (initial-safepoint happens-before).
    if (marks_.isMarkedAtomic(ref))
        return;
    Oop obj(ref);
    Addr img = obj.klassImage();
    if (img == fillerInstanceImage_ || img == fillerArrayImage_)
        return;
    // The claim CAS is shared with the markers: whoever wins owns the
    // push, so the object lands on exactly one scan queue.
    auto &self = const_cast<PjhHeap &>(*this);
    if (!self.marks_.tryMarkObject(ref, pjhRawObjectSize(obj)))
        return;
    shadeCount_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(satbMu_);
    satbBuffer_.push_back(ref);
}

void
PjhHeap::shadeFieldIfRef(Oop obj, std::uint32_t offset) const
{
    if (gcPhase_.load(std::memory_order_acquire) !=
        static_cast<unsigned>(GcPhase::kMarking))
        return;
    // flushField can't observe the overwritten value — shade the
    // stored one, but only when the Klass image declares a reference
    // field at this offset (shading a primitive word that happens to
    // alias a heap address would dereference a non-header).
    auto *img = reinterpret_cast<const KlassImage *>(obj.klassImage());
    if (img->isArray())
        return;
    const FieldImage *fields = img->fields();
    for (Word i = 0; i < img->fieldCount; ++i) {
        if (fields[i].offset == offset) {
            if (static_cast<FieldType>(fields[i].type) == FieldType::kRef)
                shade(loadWord(obj.addr() + offset));
            return;
        }
    }
}

void
PjhHeap::triggerGcOutsideGuard()
{
    // Step outside the allocation-epoch bracket for the triggered
    // collection: this thread is no longer mid-allocation, and
    // collect() would otherwise count it as a racing mutator.
    // Re-enter even when the collection throws (simulated crash,
    // panic) — the caller's AllocGuard unwinds too.
    allocGuardExit();
    try {
        gcTrigger_();
    } catch (...) {
        allocGuardEnter();
        throw;
    }
    allocGuardEnter();
}

PjhHeap::~PjhHeap() = default;

void
PjhHeap::setupViews()
{
    Addr base = reinterpret_cast<Addr>(dev_->base());
    meta_ = reinterpret_cast<PjhMetadata *>(base);
    names_ = NameTable(dev_, base + meta_->nameTableOff,
                       meta_->nameTableCapacity);
    klasses_ = KlassSegment(dev_, base + meta_->klassSegOff,
                            meta_->klassSegSize, meta_, &names_);
    dataBase_ = base + meta_->dataOff;
    top_ = dataBase_ + meta_->topOffset;
    marks_ = MarkBitmap(
        dataBase_, meta_->dataSize,
        reinterpret_cast<Word *>(base + meta_->markStartOff),
        reinterpret_cast<Word *>(base + meta_->markLiveOff));
    regionBits_ = BitmapView(
        reinterpret_cast<Word *>(base + meta_->regionBitmapOff),
        meta_->dataSize / meta_->regionSize);
    undoLog_ = UndoLog(dev_, base + meta_->undoLogOff,
                       meta_->undoLogSize, dataBase_);
    tlabBytes_ = tlabBytesFromEnv(meta_->tlabBytes);
    if (tlabBytes_ < ObjectLayout::kArrayHeaderSize)
        tlabBytes_ = PjhConfig().tlabSize;
}

void
PjhHeap::cacheFillerImages()
{
    NameEntry *inst = names_.find(kFillerClassName, NameKind::kKlass);
    NameEntry *arr = names_.find(kFillerArrayClassName, NameKind::kKlass);
    if (!inst || !arr)
        panic("PJH: filler Klass images missing");
    Addr seg = reinterpret_cast<Addr>(dev_->base()) + meta_->klassSegOff;
    fillerInstanceImage_ = seg + inst->value;
    fillerArrayImage_ = seg + arr->value;
}

std::unique_ptr<PjhHeap>
PjhHeap::create(NvmDevice *device, const PjhConfig &cfg,
                KlassRegistry *registry)
{
    PjhMetadata scratch{};
    std::size_t total = computeLayout(cfg, scratch);
    if (device->size() < total)
        fatal(strCat("PJH create: device too small (", device->size(),
                     " < ", total, " bytes)"));

    auto heap = std::unique_ptr<PjhHeap>(new PjhHeap(device, registry));
    auto *meta = reinterpret_cast<PjhMetadata *>(device->base());
    std::memset(meta, 0, sizeof(PjhMetadata));
    *meta = scratch;
    meta->magic = PjhMetadata::kMagic;
    meta->version = PjhMetadata::kVersion;
    meta->heapSize = device->size();
    meta->cleanShutdown = 0;
    meta->topOffset = 0;
    meta->klassSegTopOffset = 0;
    meta->globalTimestamp = 1;
    meta->gcInProgress = 0;
    meta->bounceOwnerOffset = kNoneWord;
    meta->rootJournalCount = 0;
    meta->tlabBytes = alignUp(
        std::max(cfg.tlabSize,
                 static_cast<std::size_t>(ObjectLayout::kArrayHeaderSize)),
        kWordSize);

    heap->setupViews();
    meta->addressHint = heap->dataBase_;
    device->persist(reinterpret_cast<Addr>(meta), sizeof(PjhMetadata));

    // Pre-publish the filler Klasses used for TLAB tails and tail
    // repair so a recovery never needs to create metadata.
    registry->define(KlassDef{kFillerClassName, "", {}, false});
    heap->klasses_.ensureImage(
        registry->resolve(kFillerClassName, MemKind::kPersistent),
        *registry);
    heap->klasses_.ensureImage(
        registry->arrayOfNamed(kFillerArrayClassName, FieldType::kI64,
                               MemKind::kPersistent),
        *registry);
    heap->cacheFillerImages();
    return heap;
}

std::unique_ptr<PjhHeap>
PjhHeap::attach(NvmDevice *device, KlassRegistry *registry,
                SafetyLevel safety)
{
    std::uint64_t t0 = nowNs();
    auto heap = std::unique_ptr<PjhHeap>(new PjhHeap(device, registry));
    auto *meta = reinterpret_cast<PjhMetadata *>(device->base());
    if (meta->magic != PjhMetadata::kMagic)
        fatal("PJH attach: no heap on this device (bad magic)");
    if (meta->version != PjhMetadata::kVersion)
        fatal("PJH attach: version mismatch");
    if (meta->heapSize != device->size())
        fatal("PJH attach: device size changed");

    heap->safety_ = safety;
    heap->setupViews();
    heap->cacheFillerImages();

    // The remap delta: stored addresses + delta = current addresses.
    std::ptrdiff_t delta =
        static_cast<std::ptrdiff_t>(heap->dataBase_) -
        static_cast<std::ptrdiff_t>(meta->addressHint);
    if (delta % static_cast<std::ptrdiff_t>(kWordSize) != 0)
        panic("PJH attach: misaligned remap delta");

    if (meta->gcInProgress) {
        PjhRecovery recovery(*heap, delta);
        recovery.run();
        ++heap->stats_.recoveries;
    } else if (meta->gcMarkingActive) {
        // The crash hit mutator/marker overlap: the cycle's snapshot
        // never committed (gcInProgress was still down, so the mark
        // bitmap may be torn on media). Discard the cycle cleanly —
        // the heap itself is untouched by marking.
        PjhRecovery recovery(*heap, delta);
        recovery.discardMarkingCycle();
        ++heap->stats_.recoveries;
    }
    // Application-level rollback happens while pointer values are
    // still expressed in the stored address space.
    heap->undoLog_.recover();
    if (!meta->cleanShutdown) {
        heap->repairAllocationTail(delta);
    }
    if (delta != 0) {
        heap->rebase(delta);
        ++heap->stats_.rebases;
    }
    // The chunks described by the slot table belong to the previous
    // attach; they are fully parseable now, so retire them all.
    heap->clearTlabSlots();

    std::uint64_t t_bind = nowNs();
    heap->klasses_.bindAll(*registry);
    heap->stats_.lastLoadBindNs = nowNs() - t_bind;

    std::uint64_t t_safety = nowNs();
    if (safety == SafetyLevel::kZeroing)
        heap->zeroingScan();
    heap->stats_.lastLoadSafetyNs = nowNs() - t_safety;

    meta->cleanShutdown = 0;
    device->persist(reinterpret_cast<Addr>(&meta->cleanShutdown),
                    sizeof(Word));
    // GC statistics live in the metadata area (persisted with the
    // usual flush+fence discipline at the end of every collection);
    // seed the volatile mirror so post-crash readers see them.
    heap->stats_.collections = meta->gcCollections;
    heap->stats_.lastGcMarked = meta->gcLastMarked;
    heap->stats_.lastGcConcMarkNs = meta->gcLastConcMarkNs;
    heap->stats_.lastGcRemarkNs = meta->gcLastRemarkNs;
    heap->stats_.lastGcShaded = meta->gcLastShaded;
    heap->stats_.lastGcFloating = meta->gcLastFloating;
    heap->stats_.markDiscards = meta->gcMarkDiscards;
    heap->stats_.lastLoadNs = nowNs() - t0;
    return heap;
}

void
PjhHeap::detach()
{
    meta_->cleanShutdown = 1;
    // An orderly power-down drains the caches (ADR); model it as a
    // device-level clean shutdown.
    dev_->shutdownClean();
}

void
PjhHeap::setGcTrigger(std::function<void()> trigger)
{
    gcTrigger_ = std::move(trigger);
}

std::size_t
PjhHeap::rawSizeWithDelta(Oop o, std::ptrdiff_t delta) const
{
    Word kraw = o.klassRefRaw();
    auto *img = reinterpret_cast<const KlassImage *>(
        static_cast<Addr>((kraw & ~Oop::kKlassPersistentTag) + delta));
    if (img->isArray()) {
        return alignUp(ObjectLayout::kArrayHeaderSize +
                           o.arrayLength() * elementSize(img->elemType()),
                       kWordSize);
    }
    return alignUp(img->instanceSize, kWordSize);
}

// ---------------------------------------------------------------------
// Allocation: per-thread TLABs over a locked shared top (§4.1)
// ---------------------------------------------------------------------

PjhHeap::ThreadTlab &
PjhHeap::threadTlab() const
{
    // Keyed by heap serial: serials are never reused, so entries of
    // destroyed heaps can never alias a live one.
    thread_local std::unordered_map<std::uint64_t, ThreadTlab> tlabs;
    return tlabs[serial_];
}

void
PjhHeap::writeFillerHeader(Addr a, std::size_t gap, Addr instance_image,
                           Addr array_image)
{
    // Unreachable by construction: every allocation and chunk
    // remainder is at least kHeaderSize (see the static_asserts at
    // the top of this file and the fit rules in tlabReserve /
    // carveChunk), and repair only plugs allocation boundaries.
    if (gap < ObjectLayout::kHeaderSize)
        panic("PJH: filler gap below the minimum allocation size");
    if (instance_image == 0) {
        instance_image = fillerInstanceImage_;
        array_image = fillerArrayImage_;
    }
    Oop f(a);
    f.setMarkWord(0);
    f.setGcTimestamp(static_cast<std::uint16_t>(meta_->globalTimestamp));
    if (gap >= ObjectLayout::kArrayHeaderSize) {
        f.setKlassImage(array_image);
        f.setArrayLength(
            (gap - ObjectLayout::kArrayHeaderSize) / kWordSize);
    } else {
        // gap == kHeaderSize: the zero-field filler instance.
        f.setKlassImage(instance_image);
    }
}

bool
PjhHeap::carveChunk(ThreadTlab &t, std::size_t min_size)
{
    std::size_t want = alignUp(std::max(min_size, tlabBytes_), kWordSize);
    // The first allocation must leave a coverable remainder (0 or at
    // least a filler header).
    if (want - min_size == kWordSize)
        want += kWordSize;

    for (int attempt = 0;; ++attempt) {
        {
            std::lock_guard<std::mutex> g(topMu_);
            Addr a = top_.load(std::memory_order_relaxed);
            std::size_t avail = dataBase_ + meta_->dataSize - a;
            std::size_t chunk = std::min(want, avail);
            if (chunk >= min_size && chunk - min_size == kWordSize)
                chunk -= kWordSize; // keep the remainder coverable
            if (chunk >= min_size) {
                if (t.slot == kSlotUnassigned) {
                    std::uint32_t s = nextTlabSlot_.fetch_add(
                        1, std::memory_order_relaxed);
                    t.slot = s < PjhMetadata::kMaxTlabSlots
                                 ? static_cast<int>(s)
                                 : kSlotless;
                }
                if (t.slot == kSlotless)
                    return false;

                // Crash-consistent handoff: the whole chunk becomes
                // one durable filler before the top replica (and
                // then the slot registration) publishes it, so the
                // heap parses end to end at every step.
                std::memset(reinterpret_cast<void *>(a), 0, chunk);
                writeFillerHeader(a, chunk);
                dev_->flush(a, chunk);
                dev_->fence();

                meta_->topOffset = a + chunk - dataBase_;
                dev_->persist(reinterpret_cast<Addr>(&meta_->topOffset),
                              sizeof(Word));
                top_.store(a + chunk, std::memory_order_release);

                meta_->setTlabSlot(static_cast<std::size_t>(t.slot),
                                   a - dataBase_,
                                   a + chunk - dataBase_);
                dev_->persist(
                    reinterpret_cast<Addr>(
                        &meta_->tlabSlots[static_cast<std::size_t>(
                                              t.slot) *
                                          PjhMetadata::kTlabSlotWords]),
                    2 * kWordSize);

                t.bump = a;
                t.end = a + chunk;
                t.epoch = tlabEpoch_.load(std::memory_order_relaxed);
                return true;
            }
        }
        if (!gcTrigger_ || attempt > 0)
            fatal("PJH: out of persistent memory");
        triggerGcOutsideGuard();
    }
}

Addr
PjhHeap::tlabReserve(ThreadTlab &t, std::size_t size)
{
    for (;;) {
        if (t.bump != 0 &&
            t.epoch == tlabEpoch_.load(std::memory_order_relaxed)) {
            std::size_t avail = t.end - t.bump;
            if (avail >= size) {
                std::size_t rem = avail - size;
                if (rem == 0 || rem >= ObjectLayout::kHeaderSize) {
                    Addr a = t.bump;
                    if (rem > 0) {
                        // Re-establish the trailing filler before
                        // the object can be published: a crash
                        // between the two persists parses as the
                        // old, larger filler still covering [a,
                        // end).
                        writeFillerHeader(a + size, rem);
                        dev_->persist(
                            a + size,
                            std::min(rem, static_cast<std::size_t>(
                                              ObjectLayout::
                                                  kArrayHeaderSize)));
                    }
                    t.bump = a + size;
                    return a;
                }
            }
        }
        // Unusable chunk (none yet, stale epoch, too small, or an
        // uncoverable 8-byte tail would remain): abandon it — its
        // trailing filler is already durable — and carve afresh.
        t.bump = t.end = 0;
        if (!carveChunk(t, size))
            return kNullAddr;
    }
}

Oop
PjhHeap::allocSlotless(const Klass *pk, Addr image, std::uint64_t length,
                       std::size_t size)
{
    // Threads beyond the slot table allocate under the heap lock and
    // publish everything before releasing it: any torn state is then
    // provably the global allocation tail (no later carve can start),
    // which repairAllocationTail plugs without a slot registration.
    for (int attempt = 0;; ++attempt) {
        {
            std::lock_guard<std::mutex> g(topMu_);
            Addr a = top_.load(std::memory_order_relaxed);
            if (a + size <= dataBase_ + meta_->dataSize) {
                std::memset(reinterpret_cast<void *>(a), 0, size);
                Oop o(a);
                o.setGcTimestamp(
                    static_cast<std::uint16_t>(meta_->globalTimestamp));
                o.setKlassImage(image);
                if (pk->isArray())
                    o.setArrayLength(length);
                dev_->flush(a, size);
                meta_->topOffset = a + size - dataBase_;
                dev_->flush(reinterpret_cast<Addr>(&meta_->topOffset),
                            sizeof(Word));
                dev_->fence();
                top_.store(a + size, std::memory_order_release);
                return o;
            }
        }
        if (!gcTrigger_ || attempt > 0)
            fatal("PJH: out of persistent memory");
        triggerGcOutsideGuard();
    }
}

Oop
PjhHeap::allocRaw(const Klass *k, std::uint64_t length)
{
    AllocGuard quiescence_guard(*this);
    ThreadTlab &t = threadTlab();

    // Phase 1 (§4.1): resolve the Klass / Klass image.
    const Klass *pk;
    Addr image;
    if (t.cachedKlass == k) {
        pk = t.cachedPk;
        image = t.cachedImage;
    } else {
        pk = registry_->physicalFor(k, MemKind::kPersistent);
        image = klasses_.ensureImage(pk, *registry_);
        t.cachedKlass = k;
        t.cachedPk = pk;
        t.cachedImage = image;
    }

    std::size_t size = Oop::sizeFor(pk, length);
    if (size > meta_->bounceSize)
        fatal(strCat("PJH: object of ", size,
                     " bytes exceeds the bounce-buffer bound (",
                     meta_->bounceSize, ")"));

    // Phase 2: reserve TLAB space; the chunk's trailing filler is
    // durably re-established past the reservation first.
    Addr a = tlabReserve(t, size);
    if (a == kNullAddr) {
        Oop o = allocSlotless(pk, image, length, size);
        bornBlackIfMarking(o.addr(), size);
        stats_.allocations.fetch_add(1, std::memory_order_relaxed);
        stats_.bytesAllocated.fetch_add(size, std::memory_order_relaxed);
        return o;
    }

    // Phase 3: initialize and persist the header over the old filler
    // header; the Klass-pointer persist is the publication point.
    // Bytes beyond the old filler header are durably zero from the
    // carve-time fill.
    Oop o(a);
    o.setMarkWord(0);
    o.setGcTimestamp(static_cast<std::uint16_t>(meta_->globalTimestamp));
    o.setKlassImage(image);
    std::size_t header = ObjectLayout::kHeaderSize;
    if (pk->isArray()) {
        o.setArrayLength(length);
        header = ObjectLayout::kArrayHeaderSize;
    } else if (size > ObjectLayout::kHeaderSize) {
        // Clear the old filler's length word, now the first field.
        storeWord(a + ObjectLayout::kHeaderSize, 0);
        header = ObjectLayout::kArrayHeaderSize;
    }
    dev_->persist(a, header);
    bornBlackIfMarking(a, size);

    stats_.allocations.fetch_add(1, std::memory_order_relaxed);
    stats_.bytesAllocated.fetch_add(size, std::memory_order_relaxed);
    return o;
}

void
PjhHeap::bornBlackIfMarking(Addr a, std::size_t size)
{
    // Objects allocated during a concurrent cycle are born black:
    // they survive the cycle unconditionally and markers never scan
    // them (their outgoing references are covered by the store
    // barrier and the remark root rescan). The phase is stable here —
    // the allocation guard is held, so the cycle cannot reach a
    // safepoint mid-allocation. Marked per object, not per chunk, so
    // the live bits stay object-granular for liveSizeAt.
    if (gcPhase_.load(std::memory_order_acquire) ==
        static_cast<unsigned>(GcPhase::kMarking)) {
        marks_.tryMarkObject(a, size);
        bornBlack_.fetch_add(1, std::memory_order_relaxed);
    }
}

Oop
PjhHeap::allocInstance(const Klass *k)
{
    if (!k || k->isArray())
        panic("PJH allocInstance: not an instance klass");
    return allocRaw(k, 0);
}

Oop
PjhHeap::allocArray(const Klass *k, std::uint64_t length)
{
    if (!k || !k->isArray())
        panic("PJH allocArray: not an array klass");
    return allocRaw(k, length);
}

void
PjhHeap::setRoot(const std::string &name, Oop obj)
{
    if (obj && !containsData(obj.addr()))
        fatal("setRoot: object is not in this persistent heap");
    RootOpGuard guard(*this);
    // SATB deletion barrier: the overwritten referent may be the last
    // snapshot path to its subgraph. (Shading the value we observed
    // is enough even if another setRoot interleaves: a value stored
    // *during* the cycle is either born black or covered by the
    // shading of its own snapshot paths.)
    if (markingConcurrently()) {
        if (NameEntry *e = names_.find(name, NameKind::kRoot))
            shade(NameTable::readValue(e));
        shade(obj.addr());
    }
    names_.upsert(name, NameKind::kRoot, obj.addr());
}

Oop
PjhHeap::getRoot(const std::string &name) const
{
    RootOpGuard guard(*this);
    NameEntry *e = names_.find(name, NameKind::kRoot);
    Oop obj = e ? Oop(NameTable::readValue(e)) : Oop();
    // Load barrier: the caller may delete the root next and keep the
    // only reference in a local, which no marker can see.
    if (obj)
        shade(obj.addr());
    return obj;
}

bool
PjhHeap::hasRoot(const std::string &name) const
{
    RootOpGuard guard(*this);
    return names_.find(name, NameKind::kRoot) != nullptr;
}

void
PjhHeap::flushField(Oop obj, std::uint32_t offset)
{
    RootOpGuard guard(*this);
    // Write barrier half for raw setRef users: the overwritten value
    // is gone by flush time, so shade the stored one (see the
    // concurrent-mode contract in the header).
    shadeFieldIfRef(obj, offset);
    // Work set is bounded to 8 bytes to preserve atomicity (§3.5).
    dev_->persist(obj.addr() + offset, kWordSize);
}

void
PjhHeap::flushArrayElement(Oop obj, std::uint64_t index)
{
    RootOpGuard guard(*this);
    const Klass *k = obj.klass();
    std::size_t esz = elementSize(k->elemType());
    if (k->elemType() == FieldType::kRef && markingConcurrently())
        shade(loadWord(obj.elemAddr(index, kWordSize)));
    dev_->persist(obj.elemAddr(index, esz), esz);
}

void
PjhHeap::flushObject(Oop obj)
{
    RootOpGuard guard(*this);
    if (markingConcurrently())
        pjhRawForEachRefSlot(obj,
                             [this](Addr slot) { shade(loadWord(slot)); });
    // All fields, one trailing fence (§3.5 coarse-grained flush).
    dev_->flush(obj.addr(), obj.sizeInBytes());
    dev_->fence();
}

void
PjhHeap::checkRefStore(Oop obj, Oop value) const
{
    if (!value)
        return;
    const Klass *k = obj.klass();
    bool restricted =
        k->persistentOnly() || safety_ == SafetyLevel::kTypeBased;
    if (restricted && !containsData(value.addr())) {
        throw MemorySafetyError(
            strCat("type-based safety: storing a non-persistent "
                   "reference into ",
                   k->name()));
    }
}

void
PjhHeap::storeRef(Oop obj, std::uint32_t offset, Oop value)
{
    checkRefStore(obj, value);
    RootOpGuard guard(*this);
    if (markingConcurrently()) {
        // Deletion barrier (SATB: the overwritten referent may be the
        // last snapshot path to its subgraph) plus an insertion shade
        // of the stored value, which covers references obtained just
        // before the cycle's snapshot and published into an
        // already-scanned object.
        shade(loadWord(obj.addr() + offset));
        shade(value.addr());
    }
    obj.setRef(offset, value);
}

void
PjhHeap::storeRefElement(Oop obj, std::uint64_t index, Oop value)
{
    checkRefStore(obj, value);
    RootOpGuard guard(*this);
    if (markingConcurrently()) {
        shade(loadWord(obj.elemAddr(index, kWordSize)));
        shade(value.addr());
    }
    obj.setRefElem(index, value.addr());
}

void
PjhHeap::forEachObject(const std::function<void(Oop)> &fn) const
{
    Addr a = dataBase_;
    Addr top = dataTop();
    while (a < top) {
        Oop o(a);
        if (!pjhRawHeaderValid(o, klasses_.base(), klasses_.size()))
            panic("PJH walk: unparseable object (missing tail repair?)");
        Addr img = o.klassImage();
        if (img != fillerInstanceImage_ && img != fillerArrayImage_)
            fn(o);
        a += pjhRawObjectSize(o);
    }
}

void
PjhHeap::forEachRefSlot(const std::function<void(Addr)> &fn) const
{
    forEachObject([&fn](Oop o) { pjhRawForEachRefSlot(o, fn); });
}

void
PjhHeap::forEachOutRefSlot(const SlotVisitor &visitor)
{
    forEachRefSlot([this, &visitor](Addr slot) {
        Addr ref = loadWord(slot);
        if (ref != kNullAddr && !dev_->contains(ref))
            visitor(slot);
    });
}

// ---------------------------------------------------------------------
// Recovery: tail repair with at most one torn tail per TLAB
// ---------------------------------------------------------------------

void
PjhHeap::plugFillerGap(Addr junk, Addr end, std::ptrdiff_t delta)
{
    std::size_t gap = end - junk;
    // The heap is still expressed in stored addresses at this point.
    writeFillerHeader(junk, gap,
                      fillerInstanceImage_ - static_cast<Addr>(delta),
                      fillerArrayImage_ - static_cast<Addr>(delta));
    dev_->persist(junk, gap >= ObjectLayout::kArrayHeaderSize
                            ? ObjectLayout::kArrayHeaderSize
                            : ObjectLayout::kHeaderSize);
    ++stats_.tailRepairs;
}

void
PjhHeap::clearTlabSlots()
{
    bool dirty = false;
    for (std::size_t i = 0; i < PjhMetadata::kMaxTlabSlots; ++i) {
        if (meta_->tlabSlotStart(i) != 0 || meta_->tlabSlotEnd(i) != 0) {
            meta_->setTlabSlot(i, 0, 0);
            dev_->flush(
                reinterpret_cast<Addr>(
                    &meta_->tlabSlots[i * PjhMetadata::kTlabSlotWords]),
                2 * kWordSize);
            dirty = true;
        }
    }
    if (dirty)
        dev_->fence();
}

void
PjhHeap::repairAllocationTail(std::ptrdiff_t delta)
{
    Addr seg_base_stored =
        reinterpret_cast<Addr>(dev_->base()) + meta_->klassSegOff -
        static_cast<Addr>(delta);

    // Registered TLAB chunks bound how far a torn allocation can
    // reach: junk inside a chunk is plugged to the chunk's end, and
    // parsing resumes there. Slot words are persisted as one cache
    // line, so a slot is either a real chunk or all-zero — but be
    // defensive about garbage anyway.
    struct ChunkBound
    {
        Addr start;
        Addr end;
    };
    std::vector<ChunkBound> chunks;
    for (std::size_t i = 0; i < PjhMetadata::kMaxTlabSlots; ++i) {
        Word s = meta_->tlabSlotStart(i);
        Word e = meta_->tlabSlotEnd(i);
        if (s == 0 && e == 0)
            continue;
        if (s >= e || e > meta_->dataSize ||
            !isAligned(s, kWordSize) || !isAligned(e, kWordSize)) {
            continue;
        }
        chunks.push_back({dataBase_ + s, dataBase_ + e});
    }
    std::sort(chunks.begin(), chunks.end(),
              [](const ChunkBound &a, const ChunkBound &b) {
                  return a.start < b.start;
              });
    auto chunkContaining = [&](Addr a) -> const ChunkBound * {
        for (const ChunkBound &c : chunks) {
            if (a >= c.start && a < c.end)
                return &c;
            if (c.start > a)
                break;
        }
        return nullptr;
    };

    Addr top = top_.load(std::memory_order_relaxed);
    Addr a = dataBase_;
    while (a < top) {
        const ChunkBound *c = chunkContaining(a);
        // Objects never span a registered chunk's end.
        Addr limit = c ? c->end : top;

        Oop o(a);
        Word kraw = o.klassRefRaw();
        bool valid = (kraw & Oop::kKlassPersistentTag) &&
                     (kraw & ~Oop::kKlassPersistentTag) >= seg_base_stored &&
                     (kraw & ~Oop::kKlassPersistentTag) <
                         seg_base_stored + meta_->klassSegSize;
        if (valid) {
            auto *img = reinterpret_cast<const KlassImage *>(
                static_cast<Addr>((kraw & ~Oop::kKlassPersistentTag) +
                                  delta));
            valid = img->pkr.magic == PersistentKlassRef::kMagic;
        }
        std::size_t size = valid ? rawSizeWithDelta(o, delta) : 0;
        if (valid && a + size <= limit) {
            a += size;
            continue;
        }

        // A torn allocation: plug the gap up to the owning chunk's
        // end, or — outside any registered chunk — up to the top,
        // which is then provably the final carve.
        plugFillerGap(a, limit, delta);
        if (!c)
            return;
        a = limit;
    }
}

void
PjhHeap::rebase(std::ptrdiff_t delta)
{
    Addr dev_base = reinterpret_cast<Addr>(dev_->base());
    Addr stored_dev_base = dev_base - static_cast<Addr>(delta);
    std::size_t dev_size = dev_->size();
    auto in_stored_device = [&](Addr v) {
        return v >= stored_dev_base && v < stored_dev_base + dev_size;
    };

    Addr a = dataBase_;
    Addr top = top_.load(std::memory_order_relaxed);
    while (a < top) {
        Oop o(a);
        Word kraw = o.klassRefRaw();
        std::size_t size = rawSizeWithDelta(o, delta);
        auto *img = reinterpret_cast<const KlassImage *>(
            static_cast<Addr>((kraw & ~Oop::kKlassPersistentTag) + delta));
        if (img->pkr.magic != PersistentKlassRef::kMagic)
            panic("rebase: unparseable heap");

        o.setKlassRefRaw(kraw + static_cast<Word>(delta));

        auto fix = [&](Addr slot) {
            Addr v = loadWord(slot);
            if (v != kNullAddr && in_stored_device(v))
                storeWord(slot, v + static_cast<Addr>(delta));
        };
        if (img->isArray()) {
            if (img->elemType() == FieldType::kRef) {
                std::uint64_t n = o.arrayLength();
                for (std::uint64_t i = 0; i < n; ++i)
                    fix(o.elemAddr(i, kWordSize));
            }
        } else {
            const FieldImage *fields = img->fields();
            for (Word i = 0; i < img->fieldCount; ++i) {
                if (static_cast<FieldType>(fields[i].type) ==
                    FieldType::kRef) {
                    fix(o.addr() + fields[i].offset);
                }
            }
        }
        a += size;
    }

    // Root entries hold absolute data-heap addresses.
    names_.forEach([&](NameEntry &e) {
        if (e.kind == static_cast<Word>(NameKind::kRoot) &&
            e.value != kNullAddr && in_stored_device(e.value)) {
            e.value += static_cast<Word>(delta);
        }
    });

    meta_->addressHint = dataBase_;
    // The scan touched pointers all over the heap; make the new
    // expression durable in one sweep.
    dev_->flush(dev_base, dev_size);
    dev_->fence();
}

void
PjhHeap::zeroingScan()
{
    bool dirty = false;
    forEachObject([&](Oop o) {
        pjhRawForEachRefSlot(o, [&](Addr slot) {
            Addr v = loadWord(slot);
            if (v != kNullAddr && !containsData(v)) {
                storeWord(slot, kNullAddr);
                dev_->flush(slot, kWordSize);
                dirty = true;
            }
        });
    });
    names_.forEach([&](NameEntry &e) {
        if (e.kind == static_cast<Word>(NameKind::kRoot) &&
            e.value != kNullAddr && !containsData(e.value)) {
            e.value = kNullAddr;
            dev_->flush(reinterpret_cast<Addr>(&e.value), kWordSize);
            dirty = true;
        }
    });
    if (dirty)
        dev_->fence();
}

void
PjhHeap::collect(VolatileHeap *volatile_heap)
{
    // Whole cycles are serialized: a mutator-triggered collect that
    // lost the race blocks here (its allocation guard is released by
    // triggerGcOutsideGuard, so the winner's safepoints still drain),
    // then runs its own cycle against the freshly compacted heap.
    std::lock_guard<std::mutex> cycle(gcCycleMu_);
    std::uint64_t t0 = nowNs();

    if (gcConcurrent()) {
        // Concurrent SATB cycle: PjhGc drives the phase transitions
        // and pause accounting itself. gcActive_ is raised only after
        // the phase leaves kIdle so the STW panic branch in
        // allocGuardEnter can never misfire on a concurrent cycle.
        PjhGc gc(*this, volatile_heap);
        gc.collectConcurrent();
        ++stats_.collections;
        return;
    }

    // Quiescence check (see the header contract): flag the
    // collection, then look for in-flight allocations. seq_cst on
    // both sides guarantees a racing allocator and this collector
    // cannot both miss each other.
    gcActive_.store(true, std::memory_order_seq_cst);
    struct ActiveReset
    {
        std::atomic<bool> &flag;
        ~ActiveReset() { flag.store(false, std::memory_order_seq_cst); }
    } reset{gcActive_};
    if (allocsInFlight_.load(std::memory_order_seq_cst) != 0) {
#ifndef NDEBUG
        panic("PJH collect(): an allocation is in flight; collections "
              "are stop-the-world and require quiesced mutators");
#endif
    }
    PjhGc gc(*this, volatile_heap);
    gc.collect();
    ++stats_.collections;
    stats_.lastGcPauseNs = nowNs() - t0;
}

} // namespace espresso
