/**
 * @file
 * Mark / summary / compact collection of the old space.
 *
 * The three phases match PSGC's old GC (paper §4.2's review): mark
 * live objects into a bitmap, summarize the bitmap into region-based
 * destination indices, then slide live objects down in address order
 * and rewrite every reference through the (pure) forwardee function.
 * PJH's crash-consistent collector reuses this exact structure with
 * NVM-resident mark state.
 */

#ifndef ESPRESSO_HEAP_OLD_GC_HH
#define ESPRESSO_HEAP_OLD_GC_HH

#include <vector>

#include "heap/mark_bitmap.hh"
#include "heap/region_table.hh"
#include "heap/volatile_heap.hh"

namespace espresso {

/** One full-compaction pass over the old space. */
class OldGc
{
  public:
    explicit OldGc(VolatileHeap &heap);

    void collect();

  private:
    void markFromRoots();
    void claim(Addr ref);
    void compact();
    void fixHeapExternalSlots();
    void fixSlot(Addr slot);

    VolatileHeap &h_;
    std::vector<Word> startStorage_;
    std::vector<Word> liveStorage_;
    MarkBitmap marks_;
    RegionTable regions_;
    std::vector<Addr> grayStack_;
};

} // namespace espresso

#endif // ESPRESSO_HEAP_OLD_GC_HH
