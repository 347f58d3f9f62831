/**
 * @file
 * google-benchmark microbenchmarks of the substrate primitives:
 * NVM flush/fence, crash-consistent pnew allocation vs volatile new,
 * the §3.5 flush APIs, and undo-log transactions. These calibrate
 * the cost model behind the figure benchmarks.
 *
 * BM_NvmFence calibrates the fence write-queue model itself: its
 * ns_per_fence counter is the wall time one thread's fence takes, so
 * one thread should read the configured latency, T threads on one
 * device T times it (they queue), and one thread per device the
 * configured latency again (devices overlap).
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <memory>

#include "collections/pbox.hh"
#include "core/espresso.hh"

using namespace espresso;

namespace {

struct Fixture
{
    Fixture()
    {
        rt.define({"Node", "",
                   {{"value", FieldType::kI64},
                    {"next", FieldType::kRef}},
                   false});
        PjhConfig cfg;
        cfg.dataSize = 512u << 20;
        heap = rt.heaps().createHeap("bench", cfg);
        valueOff = rt.fieldOffset("Node", "value");
    }

    EspressoRuntime rt;
    PjhHeap *heap = nullptr;
    std::uint32_t valueOff = 0;
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

void
BM_NvmFlushFence(benchmark::State &state)
{
    NvmDevice dev(1u << 20);
    std::uint64_t off = 0;
    for (auto _ : state) {
        dev.base()[off % (1u << 20)] = 1;
        dev.persist(dev.toAddr(off % (1u << 20)), 8);
        off += 64;
    }
    state.SetItemsProcessed(state.iterations());
}

/** Devices shared by BM_NvmFence's threads. */
std::array<std::unique_ptr<NvmDevice>, 4> &
fenceDevices()
{
    static std::array<std::unique_ptr<NvmDevice>, 4> devs = [] {
        std::array<std::unique_ptr<NvmDevice>, 4> d;
        for (auto &dev : d)
            dev = std::make_unique<NvmDevice>(4096);
        return d;
    }();
    return devs;
}

/** range(0): fence latency in ns; range(1): devices the threads are
 * spread over. */
void
BM_NvmFence(benchmark::State &state)
{
    auto &devs = fenceDevices();
    auto devices = static_cast<std::size_t>(state.range(1));
    // The threads' timed loops start together, after this setup.
    if (state.thread_index() == 0)
        for (std::size_t i = 0; i < devices; ++i)
            devs[i]->config().fenceLatencyNs =
                static_cast<std::uint64_t>(state.range(0));
    NvmDevice &dev = *devs[static_cast<std::size_t>(state.thread_index()) %
                           devices];
    auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state)
        dev.fence();
    auto ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    state.counters["ns_per_fence"] = benchmark::Counter(
        ns / static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
}

void
BM_VolatileNew(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        Oop o = f.rt.newInstance("Node");
        benchmark::DoNotOptimize(o);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PersistentPnew(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        Oop o = f.rt.pnewInstance(f.heap, "Node");
        benchmark::DoNotOptimize(o);
        if (f.heap->dataUsed() + (1u << 20) > f.heap->dataCapacity()) {
            state.PauseTiming();
            f.heap->collect(&f.rt.heap());
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_FlushField(benchmark::State &state)
{
    Fixture &f = fixture();
    Oop o = f.rt.pnewInstance(f.heap, "Node");
    std::int64_t v = 0;
    for (auto _ : state) {
        o.setI64(f.valueOff, ++v);
        f.heap->flushField(o, f.valueOff);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_UndoLogTransaction(benchmark::State &state)
{
    Fixture &f = fixture();
    PBox box = PBox::create(f.heap, 0);
    std::int64_t v = 0;
    for (auto _ : state)
        box.set(++v);
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_NvmFlushFence);
BENCHMARK(BM_NvmFence)
    ->ArgNames({"latency_ns", "devices"})
    ->Args({500, 1})
    ->Args({25000, 1})
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();
BENCHMARK(BM_NvmFence)
    ->ArgNames({"latency_ns", "devices"})
    ->Args({500, 4})
    ->Args({25000, 4})
    ->Threads(4)
    ->UseRealTime();
BENCHMARK(BM_VolatileNew);
BENCHMARK(BM_PersistentPnew);
BENCHMARK(BM_FlushField);
BENCHMARK(BM_UndoLogTransaction);

} // namespace

BENCHMARK_MAIN();
