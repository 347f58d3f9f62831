#include "heap/old_gc.hh"

#include <cstring>

#include "util/logging.hh"

namespace espresso {

OldGc::OldGc(VolatileHeap &heap)
    : h_(heap),
      startStorage_(BitmapView::wordsFor(
          MarkBitmap::bitsFor(heap.cfg_.oldSize)), 0),
      liveStorage_(startStorage_.size(), 0),
      marks_(heap.oldBase_, heap.cfg_.oldSize, startStorage_.data(),
             liveStorage_.data()),
      regions_(heap.oldBase_, heap.cfg_.oldSize, heap.cfg_.oldRegionSize)
{}

void
OldGc::collect()
{
    markFromRoots();
    regions_.buildSummary(marks_, h_.oldBase_);
    fixHeapExternalSlots();
    compact();
    h_.oldTop_ = regions_.newTop();
    h_.stats_.bytesCompactedOld += h_.oldTop_ - h_.oldBase_;
}

void
OldGc::claim(Addr ref)
{
    if (ref == kNullAddr || !h_.inOld(ref))
        return;
    if (marks_.isMarked(ref))
        return;
    Oop obj(ref);
    marks_.markObject(ref, obj.sizeInBytes());
    grayStack_.push_back(ref);
}

void
OldGc::markFromRoots()
{
    auto root_visitor = [this](Addr slot) { claim(loadWord(slot)); };

    h_.visitAllRootSlots(root_visitor);

    // Survivor-space objects are roots for the old space (a full GC
    // always scavenges the young generation first).
    Addr a = h_.fromBase_;
    while (a < h_.fromTop_) {
        Oop o(a);
        o.forEachRefSlot(root_visitor);
        a += o.sizeInBytes();
    }
    a = h_.edenBase_;
    while (a < h_.edenTop_) {
        Oop o(a);
        o.forEachRefSlot(root_visitor);
        a += o.sizeInBytes();
    }

    while (!grayStack_.empty()) {
        Oop obj(grayStack_.back());
        grayStack_.pop_back();
        obj.forEachRefSlot(
            [this](Addr slot) { claim(loadWord(slot)); });
    }
}

void
OldGc::fixSlot(Addr slot)
{
    Addr ref = loadWord(slot);
    if (ref == kNullAddr || !h_.inOld(ref))
        return;
    storeWord(slot, regions_.forwardee(ref, marks_));
}

void
OldGc::fixHeapExternalSlots()
{
    auto visitor = [this](Addr slot) { fixSlot(slot); };
    h_.visitAllRootSlots(visitor);

    Addr a = h_.fromBase_;
    while (a < h_.fromTop_) {
        Oop o(a);
        o.forEachRefSlot(visitor);
        a += o.sizeInBytes();
    }
    a = h_.edenBase_;
    while (a < h_.edenTop_) {
        Oop o(a);
        o.forEachRefSlot(visitor);
        a += o.sizeInBytes();
    }
}

void
OldGc::compact()
{
    Addr scan = h_.oldBase_;
    Addr limit = h_.oldTop_;
    while (true) {
        Addr src = marks_.nextMarkedObject(scan, limit);
        if (src == kNullAddr)
            break;
        Oop obj(src);
        std::size_t size = obj.sizeInBytes();
        Addr dest = regions_.forwardee(src, marks_);
        if (dest != src) {
            std::memmove(reinterpret_cast<void *>(dest),
                         reinterpret_cast<const void *>(src), size);
        }
        // Rewrite old-space references inside the moved copy.
        Oop moved(dest);
        moved.forEachRefSlot([this](Addr slot) {
            Addr ref = loadWord(slot);
            if (ref != kNullAddr && h_.inOld(ref))
                storeWord(slot, regions_.forwardee(ref, marks_));
        });
        scan = src + size;
    }
}

} // namespace espresso
