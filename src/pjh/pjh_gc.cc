#include "pjh/pjh_gc.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "pjh/klass_segment.hh"
#include "util/logging.hh"

namespace espresso {

namespace {

/** One root-redo-journal record. */
struct RootJournalEntry
{
    Word slotIndex;  ///< name-table slot
    Word destOffset; ///< new value, as a data-heap offset
};

/** State the workers of one PjhGc::trace share. The bitmap claim is
 * the only per-object shared write; this is touched only when work
 * changes hands and at termination. */
struct TraceShared
{
    std::mutex mu;
    std::vector<Addr> handoff; ///< work given away to idle workers
    std::atomic<bool> handoffReady{false}; ///< handoff non-empty
    std::atomic<unsigned> idle{0};         ///< workers out of work
    std::atomic<bool> failed{false};       ///< a worker threw
};

/** A busy worker hands work out only from a stack at least this
 * deep, so each handoff moves enough objects to pay for the lock. */
constexpr std::size_t kHandoffMin = 32;

/** While mutators run, a worker yields its core after scanning this
 * many objects, so a mutator sharing the core is not starved by the
 * marking it is meant to overlap. */
constexpr std::uint64_t kConcurrentYieldEvery = 1024;

/** Move the older half of @p stack (entries nearer the roots, so the
 * larger subgraphs) to the handoff list. */
void
handOff(TraceShared &sh, std::vector<Addr> &stack)
{
    auto mid = stack.begin() + static_cast<std::ptrdiff_t>(stack.size() / 2);
    std::lock_guard<std::mutex> g(sh.mu);
    sh.handoff.insert(sh.handoff.end(), stack.begin(), mid);
    stack.erase(stack.begin(), mid);
    sh.handoffReady.store(true, std::memory_order_release);
}

/** Take half (rounded up) of the handoff list into the empty
 * @p stack; false when there was none. An idle taker leaves the idle
 * count under the same lock, so no worker can see every worker idle
 * while handed-off work is in flight. */
bool
takeHandoff(TraceShared &sh, std::vector<Addr> &stack, bool was_idle)
{
    std::lock_guard<std::mutex> g(sh.mu);
    if (sh.handoff.empty())
        return false;
    auto mid = sh.handoff.end() -
               static_cast<std::ptrdiff_t>((sh.handoff.size() + 1) / 2);
    stack.assign(mid, sh.handoff.end());
    sh.handoff.erase(mid, sh.handoff.end());
    sh.handoffReady.store(!sh.handoff.empty(), std::memory_order_release);
    if (was_idle)
        sh.idle.fetch_sub(1, std::memory_order_acq_rel);
    return true;
}

std::uint64_t
gcNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

// ---------------------------------------------------------------------
// PjhCompactor
// ---------------------------------------------------------------------

PjhCompactor::PjhCompactor(PjhHeap &heap, std::ptrdiff_t delta)
    : h_(heap), dev_(heap.device()), delta_(delta),
      dataPhys_(heap.dataBase_),
      dataStored_(heap.dataBase_ - static_cast<Addr>(delta)),
      regions_(heap.dataBase_, heap.meta_->dataSize,
               heap.meta_->regionSize),
      stamp_(static_cast<std::uint16_t>(heap.meta_->globalTimestamp))
{}

std::size_t
PjhCompactor::usedRegions() const
{
    const PjhMetadata *meta = h_.meta_;
    return (meta->topOffset + meta->regionSize - 1) / meta->regionSize;
}

bool
PjhCompactor::boundaryIsObjectAligned(std::size_t r) const
{
    // A slice boundary is only legal where no live object straddles
    // it: the boundary granule must be dead, or be an object start.
    // A straddler would otherwise be split between two independent
    // destination cursors — its copied tail would collide with the
    // inter-slice gap filler while the next slice's destinations
    // leave a matching unparseable hole (and its source tail lies in
    // another worker's slice).
    Addr boundary = dataPhys_ + r * h_.meta_->regionSize;
    std::size_t bit = (boundary - dataPhys_) / MarkBitmap::kGranule;
    return !h_.marks_.liveBits().test(bit) ||
           h_.marks_.startBits().test(bit);
}

void
PjhCompactor::buildSummary()
{
    regions_.buildSummary(h_.marks_, dataPhys_);
}

void
PjhCompactor::planSlices(unsigned threads)
{
    PjhMetadata *meta = h_.meta_;
    std::size_t used = usedRegions();
    std::size_t want = std::max<std::size_t>(threads, 1);
    want = std::min({want, PjhMetadata::kMaxGcSlices,
                     std::max<std::size_t>(used, 1)});

    struct Span
    {
        std::size_t begin, end;
    };
    std::vector<Span> slices;
    if (used == 0) {
        slices.push_back({0, 0});
    } else {
        std::size_t total_live = 0;
        for (std::size_t r = 0; r < used; ++r)
            total_live += regions_.liveBytesInRegion(r);
        std::size_t target = std::max<std::size_t>(
            (total_live + want - 1) / want, 1);
        std::size_t begin = 0, acc = 0;
        for (std::size_t r = 0; r < used; ++r) {
            acc += regions_.liveBytesInRegion(r);
            bool last_region = r + 1 == used;
            if (last_region) {
                slices.push_back({begin, used});
            } else if (acc >= target && slices.size() + 1 < want &&
                       boundaryIsObjectAligned(r + 1)) {
                slices.push_back({begin, r + 1});
                begin = r + 1;
                acc = 0;
            }
        }
        // A slice whose inter-slice gap would be exactly one word
        // cannot be covered by a filler header: merge it into its
        // successor (the last slice's gap lies above the final top
        // and needs no filler).
        auto slice_live = [&](const Span &s) {
            std::size_t live = 0;
            for (std::size_t r = s.begin; r < s.end; ++r)
                live += regions_.liveBytesInRegion(r);
            return live;
        };
        for (std::size_t i = 0; i + 1 < slices.size();) {
            std::size_t span =
                (slices[i].end - slices[i].begin) * meta->regionSize;
            if (span - slice_live(slices[i]) == kWordSize) {
                slices[i].end = slices[i + 1].end;
                slices.erase(slices.begin() +
                             static_cast<std::ptrdiff_t>(i) + 1);
            } else {
                ++i;
            }
        }
    }

    // Persist the plan before gcInProgress is raised: recovery must
    // rebuild the *identical* slice-aware summary.
    meta->gcSliceCount = slices.size();
    for (std::size_t i = 0; i < slices.size(); ++i)
        meta->setGcSlice(i, slices[i].begin, slices[i].end,
                         slices[i].begin);
    dev_.flush(reinterpret_cast<Addr>(&meta->gcSliceCount),
               sizeof(Word));
    dev_.flush(reinterpret_cast<Addr>(meta->gcSlices),
               slices.size() * PjhMetadata::kGcSliceWords *
                   sizeof(Word));
    dev_.fence();

    sliceBegins_.clear();
    for (const Span &s : slices)
        sliceBegins_.push_back(s.begin);
    // Re-derive only the destinations: the per-region live counts
    // from buildSummary() are partition-independent.
    regions_.applySlices(sliceBegins_);
}

void
PjhCompactor::loadSlices()
{
    const PjhMetadata *meta = h_.meta_;
    std::size_t n = meta->gcSliceCount;
    if (n == 0 || n > PjhMetadata::kMaxGcSlices)
        panic("PJH recovery: corrupt compaction-slice table");
    sliceBegins_.clear();
    for (std::size_t i = 0; i < n; ++i)
        sliceBegins_.push_back(meta->gcSliceBegin(i));
    regions_.buildSummary(h_.marks_, dataPhys_, sliceBegins_);
}

Addr
PjhCompactor::forwardStored(Addr stored) const
{
    Addr phys = stored + static_cast<Addr>(delta_);
    return regions_.forwardee(phys, h_.marks_) - dataPhys_ + dataStored_;
}

Addr
PjhCompactor::newTopPhys() const
{
    return regions_.newTop();
}

void
PjhCompactor::writeRootJournal()
{
    PjhMetadata *meta = h_.meta_;
    auto *journal = reinterpret_cast<RootJournalEntry *>(
        reinterpret_cast<Addr>(dev_.base()) + meta->rootJournalOff);
    Word count = 0;
    h_.names_.forEach([&](NameEntry &e) {
        if (e.kind != static_cast<Word>(NameKind::kRoot) ||
            e.value == kNullAddr) {
            return;
        }
        Addr stored = e.value;
        Addr phys = stored + static_cast<Addr>(delta_);
        if (!h_.containsData(phys))
            return;
        if (count >= meta->rootJournalCapacity)
            panic("PJH GC: root journal overflow");
        journal[count].slotIndex = h_.names_.indexOf(&e);
        journal[count].destOffset =
            (regions_.forwardee(phys, h_.marks_)) - dataPhys_;
        ++count;
    });
    dev_.flush(reinterpret_cast<Addr>(journal),
               count * sizeof(RootJournalEntry));
    meta->rootJournalCount = count;
    dev_.flush(reinterpret_cast<Addr>(&meta->rootJournalCount),
               sizeof(Word));
    dev_.fence();
}

void
PjhCompactor::applyRootJournal()
{
    PjhMetadata *meta = h_.meta_;
    auto *journal = reinterpret_cast<RootJournalEntry *>(
        reinterpret_cast<Addr>(dev_.base()) + meta->rootJournalOff);
    bool dirty = false;
    for (Word i = 0; i < meta->rootJournalCount; ++i) {
        NameEntry *e = h_.names_.entryAt(journal[i].slotIndex);
        Word new_value = dataStored_ + journal[i].destOffset;
        if (e->value != new_value) {
            e->value = new_value;
            dev_.flush(reinterpret_cast<Addr>(&e->value), sizeof(Word));
            dirty = true;
        }
    }
    if (dirty)
        dev_.fence();
}

void
PjhCompactor::copyWithFixups(Addr src_phys, Addr dest_phys,
                             std::size_t size)
{
    if (dest_phys != src_phys) {
        std::memmove(reinterpret_cast<void *>(dest_phys),
                     reinterpret_cast<const void *>(src_phys), size);
    }
    // Rewrite data-heap references through the summary; the klass
    // ref is segment-relative and does not move.
    Oop moved(dest_phys);
    Word kraw = moved.klassRefRaw();
    auto *img = reinterpret_cast<const KlassImage *>(
        static_cast<Addr>((kraw & ~Oop::kKlassPersistentTag) +
                          static_cast<Addr>(delta_)));
    auto fix = [&](Addr slot) {
        Addr v = loadWord(slot);
        if (v == kNullAddr)
            return;
        Addr phys = v + static_cast<Addr>(delta_);
        if (h_.containsData(phys))
            storeWord(slot, forwardStored(v));
    };
    if (img->isArray()) {
        if (img->elemType() == FieldType::kRef) {
            std::uint64_t n = moved.arrayLength();
            for (std::uint64_t i = 0; i < n; ++i)
                fix(moved.elemAddr(i, kWordSize));
        }
    } else {
        const FieldImage *fields = img->fields();
        for (Word i = 0; i < img->fieldCount; ++i) {
            if (static_cast<FieldType>(fields[i].type) == FieldType::kRef)
                fix(moved.addr() + fields[i].offset);
        }
    }
}

void
PjhCompactor::processObject(Addr src_phys, std::size_t size)
{
    PjhMetadata *meta = h_.meta_;
    Addr dest_phys = regions_.forwardee(src_phys, h_.marks_);
    Oop dest(dest_phys);
    Oop src(src_phys);
    Word src_off = src_phys - dataPhys_;

    bool overlap =
        dest_phys < src_phys + size && src_phys < dest_phys + size;

    if (!overlap) {
        // Plain evacuation: the intact source is the undo log. Note:
        // unlike the paper's region evacuation, sliding compaction
        // may later reuse this source address as another object's
        // destination, so the source header must NOT be stamped —
        // only the copied header carries the current timestamp.
        copyWithFixups(src_phys, dest_phys, size);
        dev_.flush(dest_phys, size);
        dev_.fence();
        dest.setGcTimestamp(stamp_);
        dev_.persist(dest_phys, kWordSize);
        (void)src;
        return;
    }

    if (dest_phys == src_phys) {
        // In place. If no reference actually changes, content is
        // already correct — only the timestamp needs to move.
        bool changed = false;
        pjhRawForEachRefSlotWithDelta(src, delta_, [&](Addr slot) {
            Addr v = loadWord(slot);
            if (v == kNullAddr)
                return;
            Addr phys = v + static_cast<Addr>(delta_);
            if (h_.containsData(phys) && forwardStored(v) != v)
                changed = true;
        });
        if (!changed) {
            dest.setGcTimestamp(stamp_);
            dev_.persist(dest_phys, kWordSize);
            return;
        }
    }

    // Overlapping (or in-place-with-changes) move: stage the source
    // in the bounce buffer so recovery keeps an intact undo copy.
    // The buffer is shared across slice workers; the lock keeps the
    // owner-tag protocol single-owner, so a crash still finds at
    // most one staged object, and its whole protocol (stage, tag,
    // move, stamp) is durable before the next owner is tagged.
    std::lock_guard<std::mutex> bounce_guard(bounceMu_);
    Addr bounce = reinterpret_cast<Addr>(dev_.base()) + meta->bounceOff;
    if (size > meta->bounceSize)
        panic("PJH GC: object exceeds bounce buffer");
    std::memcpy(reinterpret_cast<void *>(bounce),
                reinterpret_cast<const void *>(src_phys), size);
    dev_.flush(bounce, size);
    dev_.fence();
    meta->bounceOwnerOffset = src_off;
    dev_.persist(reinterpret_cast<Addr>(&meta->bounceOwnerOffset),
                 sizeof(Word));

    std::memmove(reinterpret_cast<void *>(dest_phys),
                 reinterpret_cast<const void *>(bounce), size);
    copyWithFixups(dest_phys, dest_phys, size);
    dev_.flush(dest_phys, size);
    dev_.fence();
    dest.setGcTimestamp(stamp_);
    dev_.persist(dest_phys, kWordSize);
}

void
PjhCompactor::plugSliceGap(Addr gap, std::size_t bytes)
{
    // Recovery runs pre-rebase: express the filler's klass ref in
    // the stored address space (delta_ == 0 online).
    h_.writeFillerHeader(
        gap, bytes,
        h_.fillerInstanceImage_ - static_cast<Addr>(delta_),
        h_.fillerArrayImage_ - static_cast<Addr>(delta_));
    // Full persist (not just a staged flush): the filler must be
    // durable before the slice cursor is even *written* — an
    // unfenced dirty cursor line can survive a crash under random
    // cache eviction, and "slice done" must always imply "gap
    // parses".
    dev_.persist(gap, bytes >= ObjectLayout::kArrayHeaderSize
                          ? ObjectLayout::kArrayHeaderSize
                          : ObjectLayout::kHeaderSize);
}

void
PjhCompactor::processSlice(std::size_t s, bool resume,
                           const std::atomic<bool> *abort)
{
    PjhMetadata *meta = h_.meta_;
    Addr limit = dataPhys_ + meta->topOffset;
    std::size_t begin = meta->gcSliceBegin(s);
    std::size_t end = meta->gcSliceEnd(s);
    std::size_t start = begin;
    if (resume)
        start = std::max<std::size_t>(start, meta->gcSliceCursor(s));

    for (std::size_t r = start; r < end; ++r) {
        if (abort && abort->load(std::memory_order_relaxed))
            return;
        Addr rbase = dataPhys_ + r * meta->regionSize;
        bool any = false;
        if (rbase < limit && !(resume && h_.regionBits_.test(r))) {
            Addr rend = rbase + meta->regionSize;
            Addr scan = rbase;
            while (true) {
                if (abort && abort->load(std::memory_order_relaxed))
                    return;
                Addr src = h_.marks_.nextMarkedObject(
                    scan, rend < limit ? rend : limit);
                if (src == kNullAddr)
                    break;
                any = true;
                std::size_t size = h_.marks_.liveSizeAt(src);
                bool done = false;
                if (resume) {
                    Addr dest_phys = regions_.forwardee(src, h_.marks_);
                    // Recovery redo check: a destination header
                    // already carrying the current stamp means this
                    // object's protocol completed before the crash.
                    // If the bounce buffer owns this source, the
                    // staged copy is the authoritative source.
                    if (Oop(dest_phys).gcTimestamp() == stamp_)
                        done = true;
                    else if (meta->bounceOwnerOffset ==
                             src - dataPhys_) {
                        // Redo from the bounce copy: the source bytes
                        // may be half-overwritten by the crashed move.
                        Addr bounce =
                            reinterpret_cast<Addr>(dev_.base()) +
                            meta->bounceOff;
                        std::memcpy(reinterpret_cast<void *>(src),
                                    reinterpret_cast<const void *>(
                                        bounce),
                                    size);
                    }
                }
                if (!done)
                    processObject(src, size);
                scan = src + size;
            }
        }
        // Before the final cursor advance, plug the inter-slice gap
        // so "slice done" durably implies "heap parses through it".
        // The last slice's gap lies above the new top.
        if (r + 1 == end && s + 1 < meta->gcSliceCount) {
            Addr packed = regions_.packedEnd(begin, end);
            Addr gap_end = dataPhys_ + end * meta->regionSize;
            if (packed < gap_end)
                plugSliceGap(packed, gap_end - packed);
        }
        // Durable progress: region bitmap bit (concurrent slices may
        // share a bitmap word — set atomically) plus the slice's
        // cursor, committed with one fence after the region's
        // objects are durable.
        if (any) {
            h_.regionBits_.setAtomic(r);
            dev_.flush(reinterpret_cast<Addr>(
                           h_.regionBits_.data() + r / 64),
                       sizeof(Word));
        }
        meta->setGcSliceCursor(s, r + 1);
        dev_.flush(
            reinterpret_cast<Addr>(
                &meta->gcSlices[s * PjhMetadata::kGcSliceWords]),
            PjhMetadata::kGcSliceWords * sizeof(Word));
        dev_.fence();
    }
}

void
PjhCompactor::compact(bool resume, unsigned workers)
{
    PjhMetadata *meta = h_.meta_;
    std::size_t num_slices = meta->gcSliceCount;
    if (num_slices == 0 || num_slices > PjhMetadata::kMaxGcSlices)
        panic("PJH GC: compact without a planned slice table");

    unsigned effective = static_cast<unsigned>(
        std::min<std::size_t>(std::max(workers, 1u), num_slices));
    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};
    // A SimulatedCrash (or any worker failure) stops the other slices
    // and propagates to the caller once every worker has stopped
    // touching the device.
    h_.gcPool_.run(effective, [&](unsigned) {
        try {
            for (;;) {
                std::size_t s =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (s >= num_slices ||
                    abort.load(std::memory_order_relaxed))
                    return;
                processSlice(s, resume, &abort);
            }
        } catch (...) {
            abort.store(true, std::memory_order_relaxed);
            throw;
        }
    });
}

void
PjhCompactor::finish()
{
    PjhMetadata *meta = h_.meta_;
    Word new_top_off = regions_.newTop() - dataPhys_;
    meta->topOffset = new_top_off;
    dev_.persist(reinterpret_cast<Addr>(&meta->topOffset), sizeof(Word));
    // Compaction rewrote the heap under every registered TLAB chunk:
    // retire the slot table *before* the in-collection flag drops,
    // so an unclean reboot can never run tail repair against stale
    // chunk bounds on a compacted heap.
    h_.clearTlabSlots();
    meta->gcInProgress = 0;
    dev_.persist(reinterpret_cast<Addr>(&meta->gcInProgress),
                 sizeof(Word));
    h_.top_ = dataPhys_ + new_top_off;
    // Invalidate the per-thread windows so the next allocation of
    // each thread carves afresh.
    h_.tlabEpoch_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------
// PjhGc
// ---------------------------------------------------------------------

PjhGc::PjhGc(PjhHeap &heap, VolatileHeap *volatile_heap)
    : h_(heap), vh_(volatile_heap)
{}

bool
PjhGc::isFillerRef(Addr ref) const
{
    Addr img = Oop(ref).klassImage();
    return img == h_.fillerInstanceImage_ || img == h_.fillerArrayImage_;
}

bool
PjhGc::claim(Addr ref)
{
    if (ref == kNullAddr || !h_.containsData(ref))
        return false;
    // Marked-test *before* the header read: during a concurrent cycle
    // a ref loaded from a slot a mutator is writing may point at an
    // object allocated in the cycle (born black or shaded on store),
    // whose header this thread has no happens-before edge to. An
    // unmarked object is pre-snapshot and fully visible.
    if (h_.marks_.isMarkedAtomic(ref))
        return false;
    // Filler space (retired TLAB tails, repaired gaps) is never
    // user-reachable; a stale volatile slot pointing at it must not
    // resurrect it.
    if (isFillerRef(ref))
        return false;
    return h_.marks_.tryMarkObject(ref, pjhRawObjectSize(Oop(ref)));
}

void
PjhGc::visitDramSlots(const SlotVisitor &visitor)
{
    if (!vh_)
        return;
    vh_->handles().forEachSlot(visitor);
    vh_->forEachObject([&](Oop o) { o.forEachRefSlot(visitor); });
}

std::vector<Addr>
PjhGc::captureRoots()
{
    std::vector<Addr> roots;
    h_.names_.forEach([&](NameEntry &e) {
        if (e.kind == static_cast<Word>(NameKind::kRoot) &&
            e.value != kNullAddr)
            roots.push_back(e.value);
    });
    visitDramSlots([&](Addr slot) {
        Addr v = loadWord(slot);
        if (v != kNullAddr)
            roots.push_back(v);
    });
    return roots;
}

void
PjhGc::resetMarks()
{
    h_.marks_.clearAll();
    h_.regionBits_.clearAll();
    markedCount_ = 0;
    h_.shadeCount_.store(0, std::memory_order_relaxed);
    h_.bornBlack_.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(h_.satbMu_);
    h_.satbBuffer_.clear();
}

void
PjhGc::trace(const std::vector<Addr> &roots,
             const std::vector<Addr> &scanned_only, unsigned workers)
{
    TraceShared sh;
    std::atomic<std::uint64_t> marked{0};

    auto body = [&](unsigned wi) {
        std::vector<Addr> stack;
        std::uint64_t claimed = 0, scanned = 0;
        auto visit = [&](Addr ref) {
            if (claim(ref)) {
                ++claimed;
                stack.push_back(ref);
            }
        };
        // Each worker starts from its stripe of the roots and of the
        // already-claimed objects.
        auto lo = [&](std::size_t n) { return n * wi / workers; };
        auto hi = [&](std::size_t n) { return n * (wi + 1) / workers; };
        for (std::size_t i = lo(roots.size()); i < hi(roots.size()); ++i)
            visit(roots[i]);
        std::size_t n_scanned = scanned_only.size();
        for (std::size_t i = lo(n_scanned); i < hi(n_scanned); ++i)
            stack.push_back(scanned_only[i]);

        for (;;) {
            while (!stack.empty()) {
                if (stack.size() >= kHandoffMin &&
                    sh.idle.load(std::memory_order_relaxed) != 0 &&
                    !sh.handoffReady.load(std::memory_order_relaxed))
                    handOff(sh, stack);
                Addr obj = stack.back();
                stack.pop_back();
                pjhRawForEachRefSlot(Oop(obj), [&](Addr slot) {
                    visit(loadWord(slot));
                });
                if (++scanned % kConcurrentYieldEvery == 0 &&
                    h_.markingConcurrently())
                    std::this_thread::yield();
            }
            if (takeHandoff(sh, stack, /*was_idle=*/false))
                continue;
            // SATB entries are already claimed (the barrier won their
            // CAS); only their children need scanning. The buffer is
            // empty outside a concurrent cycle. Entries shaded after
            // the last worker goes idle are the remark's residue.
            {
                std::lock_guard<std::mutex> g(h_.satbMu_);
                stack.swap(h_.satbBuffer_);
            }
            if (!stack.empty())
                continue;

            // Idle: wait for a handoff, or for every worker to be
            // idle — then no work is left anywhere and all exit.
            sh.idle.fetch_add(1, std::memory_order_acq_rel);
            bool resumed = false;
            while (!sh.failed.load(std::memory_order_acquire)) {
                if (sh.handoffReady.load(std::memory_order_acquire) &&
                    takeHandoff(sh, stack, /*was_idle=*/true)) {
                    resumed = true;
                    break;
                }
                if (sh.idle.load(std::memory_order_acquire) == workers)
                    break;
                std::this_thread::yield();
            }
            if (!resumed)
                break;
        }
        marked.fetch_add(claimed, std::memory_order_relaxed);
    };

    // Marking persists nothing, so a throw here is a programming
    // error; the flag releases the siblings waiting for it to idle.
    h_.gcPool_.run(workers, [&](unsigned wi) {
        try {
            body(wi);
        } catch (...) {
            sh.failed.store(true, std::memory_order_release);
            throw;
        }
    });
    markedCount_ += marked.load(std::memory_order_relaxed);
}

void
PjhGc::fixVolatileSide(const PjhCompactor &compactor)
{
    auto fixer = [&](Addr slot) {
        Addr ref = loadWord(slot);
        if (ref == kNullAddr || !h_.containsData(ref))
            return;
        // Only marked objects have meaningful forwardees: a stale
        // volatile slot pointing at filler space (or anything else
        // the mark phase did not reach) must not be forwarded into
        // whatever garbage now occupies that destination.
        if (!h_.marks_.isMarked(ref))
            return;
        storeWord(slot, compactor.forwardStored(ref));
    };
    visitDramSlots(fixer);
}

void
PjhGc::flushMarks()
{
    NvmDevice &dev = h_.device();
    const PjhMetadata *meta = h_.meta_;
    Addr base = reinterpret_cast<Addr>(dev.base());
    dev.flush(base + meta->markStartOff, meta->markBytes);
    dev.flush(base + meta->markLiveOff, meta->markBytes);
    dev.flush(base + meta->regionBitmapOff, meta->regionBitmapBytes);
    dev.fence();
}

void
PjhGc::collect()
{
    unsigned workers = std::max(1u, h_.gcThreads());

    // --- Mark, then persist the heap sketch. -------------------------
    std::uint64_t t_mark = gcNowNs();
    resetMarks();
    trace(captureRoots(), {}, workers);
    flushMarks();
    h_.mutableStats().lastGcMarkNs = gcNowNs() - t_mark;

    h_.mutableStats().lastGcCompactNs =
        commitAndCompact(workers, /*concurrent=*/false);
    persistCycleStats(markedCount_, 0, 0, 0, 0);
}

std::uint64_t
PjhGc::commitAndCompact(unsigned workers, bool concurrent)
{
    NvmDevice &dev = h_.device();
    PjhMetadata *meta = h_.meta_;

    // --- Stale every object (bump + persist the global stamp). ------
    meta->globalTimestamp += 1;
    meta->bounceOwnerOffset = kNoneWord;
    dev.flush(reinterpret_cast<Addr>(&meta->globalTimestamp),
              sizeof(Word));
    dev.flush(reinterpret_cast<Addr>(&meta->bounceOwnerOffset),
              sizeof(Word));
    dev.fence();

    // --- Summary + slice plan + root journal, then arm recovery. ----
    PjhCompactor compactor(h_, 0);
    compactor.buildSummary();
    compactor.planSlices(workers);
    compactor.writeRootJournal();
    meta->gcInProgress = 1;
    dev.persist(reinterpret_cast<Addr>(&meta->gcInProgress),
                sizeof(Word));
    if (concurrent) {
        // The snapshot is committed: compaction owns recovery from
        // here (gcInProgress wins over gcMarkingActive on attach), so
        // the marking-epoch record retires. Strictly after the
        // gcInProgress persist — the reverse order would leave a
        // crash window where neither flag is set over a half-moved
        // heap.
        meta->gcMarkingActive = 0;
        dev.persist(reinterpret_cast<Addr>(&meta->gcMarkingActive),
                    sizeof(Word));
    }

    // --- Compact (slice-parallel). -----------------------------------
    std::uint64_t t_compact = gcNowNs();
    compactor.applyRootJournal();
    compactor.compact(/*resume=*/false, workers);
    compactor.finish();
    std::uint64_t compact_ns = gcNowNs() - t_compact;

    // --- Volatile side is recomputable; repair it last. --------------
    fixVolatileSide(compactor);
    return compact_ns;
}

void
PjhGc::persistCycleStats(std::uint64_t marked, std::uint64_t conc_ns,
                         std::uint64_t remark_ns, std::uint64_t shaded,
                         std::uint64_t floating)
{
    NvmDevice &dev = h_.device();
    PjhMetadata *meta = h_.meta_;
    meta->gcLastMarked = marked;
    meta->gcCollections += 1;
    meta->gcLastConcMarkNs = conc_ns;
    meta->gcLastRemarkNs = remark_ns;
    meta->gcLastShaded = shaded;
    meta->gcLastFloating = floating;
    // One contiguous block (gcLastMarked .. gcLastFloating), flushed
    // with the same discipline as the other metadata words so a
    // post-crash reader never sees stale values.
    dev.flush(reinterpret_cast<Addr>(&meta->gcLastMarked),
              reinterpret_cast<Addr>(&meta->gcLastFloating) +
                  sizeof(Word) -
                  reinterpret_cast<Addr>(&meta->gcLastMarked));
    dev.fence();

    PjhStats &st = h_.mutableStats();
    st.lastGcMarked = marked;
    st.lastGcConcMarkNs = conc_ns;
    st.lastGcRemarkNs = remark_ns;
    st.lastGcShaded = shaded;
    st.lastGcFloating = floating;
}

// ---------------------------------------------------------------------
// Concurrent SATB cycle
// ---------------------------------------------------------------------

void
PjhGc::pauseMutators()
{
    h_.gcPhase_.store(static_cast<unsigned>(GcPhase::kPaused),
                      std::memory_order_seq_cst);
    while (h_.allocsInFlight_.load(std::memory_order_seq_cst) != 0 ||
           h_.rootOpsInFlight_.load(std::memory_order_seq_cst) != 0) {
        // Die as the simulated power cut rather than wait for a
        // mutator the injector already killed mid-bracket.
        CrashInjector *inj = h_.device().injector();
        if (inj && inj->tripped())
            throw SimulatedCrash();
        std::this_thread::yield();
    }
}

void
PjhGc::collectConcurrent()
{
    NvmDevice &dev = h_.device();
    PjhMetadata *meta = h_.meta_;
    unsigned workers = std::max(1u, h_.gcThreads());

    // Lift the safepoint (and the ownership flag) on every exit path:
    // a SimulatedCrash mid-cycle must not strand mutators spinning in
    // waitWhilePaused on a phase nobody will ever clear.
    struct PhaseReset
    {
        PjhHeap &h;
        ~PhaseReset()
        {
            h.gcActive_.store(false, std::memory_order_seq_cst);
            h.gcPhase_.store(static_cast<unsigned>(GcPhase::kIdle),
                             std::memory_order_seq_cst);
        }
    } phase_reset{h_};

    // --- Initial safepoint: arm the epoch record, snapshot roots. ---
    std::uint64_t t0 = gcNowNs();
    pauseMutators();
    h_.gcActive_.store(true, std::memory_order_seq_cst);

    resetMarks();

    // Durable marking-epoch record, armed before any bitmap line of
    // this cycle can reach media: recovery finding it without
    // gcInProgress knows the bitmaps may be torn and discards the
    // cycle (see PjhMetadata::gcMarkingActive).
    meta->gcMarkingActive = 1;
    meta->gcMarkEpoch += 1;
    dev.flush(reinterpret_cast<Addr>(&meta->gcMarkingActive),
              2 * sizeof(Word));
    dev.fence();

    // Snapshot root *values*, not slot addresses: the volatile side
    // keeps running under the concurrent trace, and its own GC may
    // move the DRAM objects those slots live in.
    std::vector<Addr> snapshot = captureRoots();

    // --- Concurrent trace: markers race mutators, draining the SATB
    // buffer as it fills. --------------------------------------------
    h_.gcPhase_.store(static_cast<unsigned>(GcPhase::kMarking),
                      std::memory_order_seq_cst);
    std::uint64_t initial_pause_ns = gcNowNs() - t0;
    std::uint64_t t_conc = gcNowNs();
    trace(snapshot, {}, workers);
    std::uint64_t conc_ns = gcNowNs() - t_conc;

    // --- Final safepoint: remark to fixpoint, persist the sketch. ---
    // With mutators drained the fixpoint is exact: rescan the current
    // roots (a slot filled from a pre-snapshot local since the
    // snapshot needs this) and the SATB residue the markers left.
    std::uint64_t t_remark = gcNowNs();
    pauseMutators();
    std::vector<Addr> residue;
    {
        std::lock_guard<std::mutex> g(h_.satbMu_);
        residue.swap(h_.satbBuffer_);
    }
    trace(captureRoots(), residue, workers);
    flushMarks();
    std::uint64_t remark_ns = gcNowNs() - t_remark;
    h_.mutableStats().lastGcMarkNs = conc_ns + remark_ns;

    // --- Commit + compact: same tail as the STW cycle. --------------
    h_.mutableStats().lastGcCompactNs =
        commitAndCompact(workers, /*concurrent=*/true);

    std::uint64_t shaded =
        h_.shadeCount_.load(std::memory_order_relaxed);
    std::uint64_t born = h_.bornBlack_.load(std::memory_order_relaxed);
    persistCycleStats(markedCount_ + shaded + born, conc_ns, remark_ns,
                      shaded, shaded + born);
    // Mutator-visible stop time: initial pause plus remark-to-finish
    // (mutators stay paused through compaction; PhaseReset lifts the
    // safepoint when we return).
    h_.mutableStats().lastGcPauseNs =
        initial_pause_ns + (gcNowNs() - t_remark);
}

} // namespace espresso
