/**
 * @file
 * Two GC figures on one workload shape.
 *
 * 1. Region-parallel persistent GC scaling: a large object
 *    population with a configurable garbage ratio is collected with
 *    gcThreads in {1, 2, 4, 8}; the figure reports the mark /
 *    compact / total pause against the 1-thread run. The mark is
 *    one tracer (root values striped across workers, private
 *    stacks, CAS bitmap claims); the compact fans live-balanced
 *    region slices out across workers. Neither phase comes near 2x
 *    at 4 threads on a 4-core host (see EXPERIMENTS.md for the
 *    measured rows): the mark's serial bitmap flush outweighs its
 *    parallel trace, and the compact gains about 1.1x.
 *
 * 2. Latency SLO under collection: a YCSB-A-style 50/50 read/update
 *    client serves paced requests against the shard *while* a
 *    collection runs, once under the classic stop-the-world
 *    discipline (ops take a shared lock, the collection takes it
 *    exclusively) and once in concurrent (SATB) mode where only the
 *    snapshot and remark+compact safepoints stop the client.
 *    Latency is measured from each request's *intended* start
 *    (coordinated-omission corrected), so a pause shows up in as
 *    many samples as it delays — the STW arm's tail is the pause,
 *    the concurrent arm's tail is only the remark+compact window.
 *    The concurrent arm takes only the trace out of the pause, a
 *    few ms here against a ~70-120 ms window, so which arm's p99.9
 *    is lower varies from run to run (see EXPERIMENTS.md).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "core/espresso.hh"

using namespace espresso;

namespace {

struct Result
{
    std::uint64_t markNs;
    std::uint64_t compactNs;
    std::uint64_t pauseNs;
    std::uint64_t marked;
};

Result
collectOnce(unsigned gc_threads, int objects, double garbage_ratio)
{
    EspressoConfig cfg;
    cfg.nvm.flushLatencyNs = 50;
    cfg.nvm.fenceLatencyNs = 50;
    EspressoRuntime rt(cfg);
    rt.define({"Blob", "",
               {{"next", FieldType::kRef}, {"pad1", FieldType::kI64},
                {"pad2", FieldType::kI64}, {"pad3", FieldType::kI64}},
              false});

    PjhConfig pjh;
    pjh.dataSize = 64u << 20;
    PjhHeap *heap = rt.heaps().createHeap("mtgc", pjh);
    heap->setGcThreads(gc_threads);

    std::uint32_t next_off = rt.fieldOffset("Blob", "next");
    int keep_every =
        garbage_ratio >= 1.0
            ? objects + 1
            : static_cast<int>(1.0 / (1.0 - garbage_ratio));
    // Several independent kept chains so the live set spreads across
    // many regions (one chain per 64 survivors).
    std::vector<Oop> chains;
    for (int i = 0; i < objects; ++i) {
        Oop o = rt.pnewInstance(heap, "Blob");
        if (i % keep_every == 0) {
            std::size_t c = static_cast<std::size_t>(i / keep_every) / 64;
            if (c >= chains.size())
                chains.resize(c + 1);
            o.setRef(next_off, chains[c]);
            chains[c] = o;
        }
    }
    for (std::size_t c = 0; c < chains.size(); ++c)
        heap->setRoot("chain" + std::to_string(c), chains[c]);

    Result r{};
    r.pauseNs = bench::timeNs([&] { heap->collect(&rt.heap()); });
    r.markNs = heap->stats().lastGcMarkNs;
    r.compactNs = heap->stats().lastGcCompactNs;
    r.marked = heap->stats().lastGcMarked;
    return r;
}

// ---------------------------------------------------------------------
// Figure 2: latency SLO while collecting (STW vs concurrent arm)
// ---------------------------------------------------------------------

struct SloResult
{
    std::size_t ops = 0;
    std::uint64_t p50Ns = 0, p99Ns = 0, p999Ns = 0, maxNs = 0;
    std::uint64_t gcStopNs = 0;  ///< mutator-visible stop window
    std::uint64_t concMarkNs = 0;
    std::uint64_t shaded = 0, floating = 0;
    double collectMs = 0;
};

std::uint64_t
percentile(const std::vector<std::uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::size_t idx =
        static_cast<std::size_t>(q * (sorted.size() - 1));
    return sorted[idx];
}

SloResult
sloArm(bool concurrent, int objects, double garbage_ratio)
{
    EspressoConfig cfg;
    cfg.nvm.flushLatencyNs = 50;
    cfg.nvm.fenceLatencyNs = 50;
    EspressoRuntime rt(cfg);
    rt.define({"Blob", "",
               {{"next", FieldType::kRef}, {"pad1", FieldType::kI64},
                {"pad2", FieldType::kI64}, {"pad3", FieldType::kI64}},
              false});

    PjhConfig pjh;
    pjh.dataSize = 64u << 20;
    PjhHeap *heap = rt.heaps().createHeap("slo", pjh);
    heap->setGcThreads(2);
    heap->setGcConcurrent(concurrent);

    std::uint32_t next_off = rt.fieldOffset("Blob", "next");
    std::uint32_t val_off = rt.fieldOffset("Blob", "pad1");

    // The collection workload: kept chains interleaved with garbage
    // (same shape as the scaling figure).
    int keep_every =
        garbage_ratio >= 1.0
            ? objects + 1
            : static_cast<int>(1.0 / (1.0 - garbage_ratio));
    // Chain length scales with the survivor count so the root set
    // stays well under the name-table capacity at any ops setting.
    int survivors = (objects + keep_every - 1) / keep_every;
    int per_chain = std::max(64, survivors / 256);
    std::vector<Oop> chains;
    for (int i = 0; i < objects; ++i) {
        Oop o = rt.pnewInstance(heap, "Blob");
        if (i % keep_every == 0) {
            std::size_t c =
                static_cast<std::size_t>(i / keep_every) / per_chain;
            if (c >= chains.size())
                chains.resize(c + 1);
            o.setRef(next_off, chains[c]);
            chains[c] = o;
        }
    }
    for (std::size_t c = 0; c < chains.size(); ++c)
        heap->setRoot("chain" + std::to_string(c), chains[c]);

    // The YCSB keyspace: named roots the client reads and republishes.
    const int kKeys = std::max(4, std::min(256, objects / 4));
    for (int k = 0; k < kKeys; ++k) {
        Oop o = rt.pnewInstance(heap, "Blob");
        o.setI64(val_off, k);
        heap->flushObject(o);
        heap->setRoot("k" + std::to_string(k), o);
    }

    // Classic STW discipline: ops share the heap lock, the collection
    // owns it. The concurrent arm never touches the lock — safepoints
    // are the only stops.
    std::shared_mutex gate;
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> lats;
    lats.reserve(1u << 18);
    constexpr std::uint64_t kIntervalNs = 20000; // 50k req/s paced

    std::thread client([&]() {
        std::mt19937_64 rng(42);
        std::int64_t sink = 0;
        std::uint64_t start = bench::nowNs();
        for (std::uint64_t i = 0;; ++i) {
            std::uint64_t intended = start + i * kIntervalNs;
            while (bench::nowNs() < intended) {
                if (stop.load(std::memory_order_relaxed))
                    return;
                std::this_thread::yield();
            }
            if (stop.load(std::memory_order_relaxed))
                return;
            std::string key =
                "k" + std::to_string(rng() % kKeys);
            if (rng() & 1) {
                if (!concurrent)
                    gate.lock_shared();
                PjhHeap::MutatorSection ms(*heap);
                Oop o = heap->getRoot(key);
                if (!o.isNull())
                    sink += o.getI64(val_off);
                if (!concurrent)
                    gate.unlock_shared();
            } else {
                if (!concurrent)
                    gate.lock_shared();
                {
                    PjhHeap::MutatorSection ms(*heap);
                    Oop o = rt.pnewInstance(heap, "Blob");
                    o.setI64(val_off, static_cast<std::int64_t>(i));
                    heap->flushObject(o);
                    heap->setRoot(key, o);
                }
                if (!concurrent)
                    gate.unlock_shared();
            }
            lats.push_back(bench::nowNs() - intended);
        }
        (void)sink;
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    SloResult r;
    r.collectMs = bench::timeNs([&] {
                      if (!concurrent) {
                          std::unique_lock<std::shared_mutex> ul(gate);
                          heap->collect(&rt.heap());
                      } else {
                          heap->collect(&rt.heap());
                      }
                  }) /
                  1e6;
    // Let the client run long enough after the collection that the
    // percentiles reflect steady state plus the pause, not only the
    // pause window itself.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    stop.store(true, std::memory_order_relaxed);
    client.join();

    std::sort(lats.begin(), lats.end());
    r.ops = lats.size();
    r.p50Ns = percentile(lats, 0.50);
    r.p99Ns = percentile(lats, 0.99);
    r.p999Ns = percentile(lats, 0.999);
    r.maxNs = lats.empty() ? 0 : lats.back();
    r.gcStopNs = heap->stats().lastGcPauseNs;
    r.concMarkNs = heap->stats().lastGcConcMarkNs;
    r.shaded = heap->stats().lastGcShaded;
    r.floating = heap->stats().lastGcFloating;
    return r;
}

} // namespace

int
main()
{
    int objects = bench::opsFromEnv(400000);
    bench::printHeader(
        "mt_gc — region-parallel persistent GC scaling",
        "One workload collected with gcThreads in {1,2,4,8}: mark "
        "is one tracer over\nstriped roots with CAS bitmap claims, "
        "compact fans live-balanced region\nslices out across "
        "workers (hardware threads here: " +
            std::to_string(std::thread::hardware_concurrency()) + ")");

    bench::JsonReport report("mt_gc");

    for (double garbage : {0.5, 0.75}) {
        std::printf("-- %.0f%% garbage, %d objects\n", garbage * 100,
                    objects);
        std::printf("%8s %10s %12s %12s %12s %10s\n", "threads",
                    "marked", "mark ms", "compact ms", "pause ms",
                    "speedup");
        double base_ms = 0;
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            Result r = collectOnce(threads, objects, garbage);
            double ms = r.pauseNs / 1e6;
            if (threads == 1)
                base_ms = ms;
            std::printf("%8u %10llu %12.2f %12.2f %12.2f %9.2fx\n",
                        threads,
                        static_cast<unsigned long long>(r.marked),
                        r.markNs / 1e6, r.compactNs / 1e6, ms,
                        ms > 0 ? base_ms / ms : 0.0);
            report.beginRow()
                .field("figure", std::string("scaling"))
                .field("garbage", garbage)
                .field("threads", static_cast<std::uint64_t>(threads))
                .field("marked", r.marked)
                .field("mark_ns", r.markNs)
                .field("compact_ns", r.compactNs)
                .field("pause_ns", r.pauseNs);
        }
        std::printf("\n");
    }

    std::printf("-- latency SLO: paced YCSB-A (50/50) served while "
                "collecting, dense live set\n");
    std::printf("%12s %8s %9s %9s %9s %9s %9s %12s\n", "arm", "ops",
                "p50 us", "p99 us", "p99.9 us", "max ms", "stop ms",
                "conc-mark ms");
    for (bool concurrent : {false, true}) {
        SloResult s = sloArm(concurrent, objects, 0.0);
        std::printf("%12s %8zu %9.1f %9.1f %9.1f %9.2f %9.2f %12.2f\n",
                    concurrent ? "concurrent" : "stw", s.ops,
                    s.p50Ns / 1e3, s.p99Ns / 1e3, s.p999Ns / 1e3,
                    s.maxNs / 1e6, s.gcStopNs / 1e6,
                    s.concMarkNs / 1e6);
        report.beginRow()
            .field("figure", std::string("slo"))
            .field("arm", std::string(concurrent ? "concurrent" : "stw"))
            .field("ops", static_cast<std::uint64_t>(s.ops))
            .field("p50_ns", s.p50Ns)
            .field("p99_ns", s.p99Ns)
            .field("p999_ns", s.p999Ns)
            .field("max_ns", s.maxNs)
            .field("gc_stop_ns", s.gcStopNs)
            .field("conc_mark_ns", s.concMarkNs)
            .field("shaded", s.shaded)
            .field("floating", s.floating)
            .field("collect_ms", s.collectMs);
    }
    std::printf("\n");
    report.write();
    return 0;
}
