/**
 * @file
 * Crash-consistency walkthrough (paper §4): injects a power failure
 * in the middle of a persistent-heap garbage collection, shows the
 * heap flagged as mid-collection, and demonstrates that loadHeap's
 * recovery completes the compaction transparently — the live graph
 * reads back bit-for-bit.
 */

#include <cstdio>

#include "core/espresso.hh"
#include "nvm/crash_injector.hh"

using namespace espresso;

int
main()
{
    EspressoRuntime rt;
    rt.define({"Node",
               "",
               {{"value", FieldType::kI64}, {"next", FieldType::kRef}},
               false});
    std::uint32_t value_off = rt.fieldOffset("Node", "value");
    std::uint32_t next_off = rt.fieldOffset("Node", "next");

    PjhHeap *heap = rt.heaps().createHeap("demo", 8u << 20);

    // A live list interleaved with garbage, so the GC must move it.
    Oop head;
    std::int64_t expected_sum = 0;
    for (int i = 0; i < 1000; ++i) {
        Oop keep = rt.pnewInstance(heap, "Node");
        keep.setI64(value_off, i);
        keep.setRef(next_off, head);
        heap->flushObject(keep);
        head = keep;
        expected_sum += i;

        Oop garbage = rt.pnewInstance(heap, "Node");
        garbage.setI64(value_off, -i);
        heap->flushObject(garbage);
    }
    heap->setRoot("list", head);
    std::printf("heap populated: %.2f MiB used\n",
                heap->dataUsed() / 1048576.0);

    // Arm a crash in the middle of the compaction phase.
    CrashInjector injector;
    heap->device().setInjector(&injector);
    injector.arm(600);
    bool crashed = false;
    try {
        heap->collect(&rt.heap());
    } catch (const SimulatedCrash &) {
        crashed = true;
    }
    injector.disarm();
    std::printf("GC %s mid-compaction\n",
                crashed ? "crashed" : "completed (crash point too late)");

    // Power failure: unflushed lines are lost, the process "reboots".
    rt.heaps().crashHeap("demo");
    NvmDevice *dev = rt.heaps().deviceOf("demo");
    auto *meta = reinterpret_cast<PjhMetadata *>(dev->base());
    std::printf("metadata says gcInProgress=%llu -> recovery needed\n",
                static_cast<unsigned long long>(meta->gcInProgress));

    // loadHeap runs the §4.3 recovery before returning.
    PjhHeap *reloaded = rt.heaps().loadHeap("demo");
    std::printf("recoveries run: %llu, heap now %.2f MiB\n",
                static_cast<unsigned long long>(
                    reloaded->stats().recoveries),
                reloaded->dataUsed() / 1048576.0);

    std::int64_t sum = 0;
    int count = 0;
    for (Oop cur = reloaded->getRoot("list"); !cur.isNull();
         cur = Oop(cur.getRef(next_off))) {
        sum += cur.getI64(value_off);
        ++count;
    }
    std::printf("list after recovery: %d nodes, sum %ld (expected %ld) "
                "%s\n",
                count, static_cast<long>(sum),
                static_cast<long>(expected_sum),
                sum == expected_sum ? "OK" : "MISMATCH");
    return sum == expected_sum ? 0 : 1;
}
