/**
 * @file
 * pjo_heap: the paper's programming model, in-process.
 *
 * Why: one mutator keeps persistent Java objects in a PHashmap rooted
 * in one PJH, so allocation, the undo log, the persistent GC and heap
 * loading do all the work while net and db do none; with a single
 * thread its persistence-event counts repeat exactly.
 *
 * Ops are 50% get, 50% replace-with-a-new-object. Replaced objects
 * become garbage; the mutator calls PjhHeap::collect() (stop-the-world,
 * the default mode) each time kGcBudgetBytes of allocation is used
 * up. The run ends with crashHeap + loadHeap. Collections stay
 * stop-the-world because the concurrent mode's SATB barrier has not
 * been checked against PHashmap's raw undo-log stores
 * (PjhTransaction::write).
 */

#include <memory>
#include <optional>
#include <stdexcept>

#include "collections/phashmap.hh"
#include "core/espresso.hh"
#include "harness.hh"
#include "util/rng.hh"
#include "verify.hh"

namespace perfbench {

using namespace espresso;

namespace {

constexpr std::int64_t kKeys = 50000;
constexpr std::uint64_t kBuckets = 65536;
/** crashHeap copies the whole device, so the copy is most of
 * recovery_s. A 24 MiB heap (room for the ~6 MB live set and one GC
 * budget) made loadHeap a larger share, but its recovery_s spread
 * between runs went over 0.25 in one of two ten-run sets. */
constexpr std::size_t kDataBytes = 64u << 20;
constexpr std::uint64_t kGcBudgetBytes = 8u << 20;
/** nvm.pjh.* count the first kCountWindow ops after set-up: a fixed
 * op prefix of a seeded single-thread run, so the counts repeat. */
constexpr std::uint64_t kCountWindow = 200000;
/** The traced phase records the spans of 1 op in kTraceEvery (every
 * collect and load is recorded): a full record of millions of ops
 * would take hundreds of MB. */
constexpr std::uint64_t kTraceEvery = 32;
constexpr const char *kHeap = "pjo";
constexpr const char *kRoot = "map";
constexpr const char *kItem = "Item";
constexpr const char *kFields[] = {"key", "version", "a", "b", "c", "d"};
constexpr std::size_t kFieldCount = sizeof(kFields) / sizeof(kFields[0]);
/** User payload of one replace: the Item's fields. */
constexpr double kPutPayloadBytes = 8.0 * kFieldCount;

std::int64_t
zeroVersion(std::int64_t)
{
    return 0;
}

class OpStream
{
  public:
    explicit OpStream(std::uint64_t seed)
        : rng_(seed * 0xA0761D6478BD642Full + 1)
    {}

    struct Op
    {
        bool write;
        std::int64_t key;
    };

    Op
    next()
    {
        bool w = rng_.nextBool();
        return {w, static_cast<std::int64_t>(rng_.nextBelow(kKeys))};
    }

  private:
    Rng rng_;
};

/** One GC cycle as PjhStats reported it. */
struct GcCycle
{
    double pauseMs, markMs, compactMs, marked, liveBytes;
};

/** The runtime, its heap and the rooted map. */
struct Store
{
    std::unique_ptr<EspressoRuntime> rt;
    PjhHeap *heap = nullptr;
    PHashmap map;
    std::uint32_t off[kFieldCount] = {};
    std::uint64_t version = 0; ///< last version written
    std::uint64_t gcMark = 0;  ///< bytesAllocated at the last collect
    std::vector<GcCycle> cycles;

    explicit Store(std::uint64_t fence_ns)
    {
        EspressoConfig cfg;
        cfg.nvm.fenceLatencyNs = fence_ns;
        rt = std::make_unique<EspressoRuntime>(cfg);
        KlassDef def{kItem, "", {}, false};
        for (const char *f : kFields)
            def.fields.push_back({f, FieldType::kI64});
        rt->define(def);
        for (std::size_t i = 0; i < kFieldCount; ++i)
            off[i] = rt->fieldOffset(kItem, kFields[i]);
        rt->heaps().setGcConcurrent(false);
        rt->heaps().setGcThreads(1);
        PjhConfig pc;
        pc.dataSize = kDataBytes;
        heap = rt->heaps().createHeap(kHeap, pc);
        map = PHashmap::create(heap, kBuckets);
        heap->setRoot(kRoot, map.oop());
        for (std::int64_t k = 0; k < kKeys; ++k)
            map.put(k, newItem(k, 0, nullptr, 0));
        gcMark = heap->stats().bytesAllocated.load();
    }

    /** pnew + field stores + flushObject. */
    Oop
    newItem(std::int64_t key, std::int64_t version, SpanLog *s,
            std::uint64_t req)
    {
        Oop o;
        {
            std::optional<ScopedSpan> sp;
            if (s)
                sp.emplace(*s, SpanName::kPjhPnew, req);
            o = rt->pnewInstance(heap, kItem);
        }
        o.setI64(off[0], key);
        o.setI64(off[1], version);
        for (std::size_t i = 2; i < kFieldCount; ++i)
            o.setI64(off[i], version * 31 + static_cast<std::int64_t>(i));
        {
            std::optional<ScopedSpan> sp;
            if (s)
                sp.emplace(*s, SpanName::kPjhFlush, req);
            heap->flushObject(o);
        }
        return o;
    }

    /** Key and version of @p key's object, or nullopt when absent or
     * malformed. */
    std::optional<std::int64_t>
    versionOf(std::int64_t key) const
    {
        Oop o = map.get(key);
        if (o.isNull() || o.getI64(off[0]) != key)
            return std::nullopt;
        std::int64_t v = o.getI64(off[1]);
        for (std::size_t i = 2; i < kFieldCount; ++i)
            if (o.getI64(off[i]) != v * 31 + static_cast<std::int64_t>(i))
                return std::nullopt;
        return v;
    }

    void
    collectIfDue(SpanLog &s, std::uint64_t req)
    {
        if (heap->stats().bytesAllocated.load() - gcMark < kGcBudgetBytes)
            return;
        {
            ScopedSpan sp(s, SpanName::kPjhCollect, req);
            heap->collect(&rt->heap());
        }
        // Compaction moved the map; reload it through its root.
        map = PHashmap::at(heap, heap->getRoot(kRoot));
        const PjhStats &st = heap->stats();
        cycles.push_back({static_cast<double>(st.lastGcPauseNs) / 1e6,
                          static_cast<double>(st.lastGcMarkNs) / 1e6,
                          static_cast<double>(st.lastGcCompactNs) / 1e6,
                          static_cast<double>(st.lastGcMarked),
                          static_cast<double>(heap->dataUsed())});
        gcMark = heap->stats().bytesAllocated.load();
    }

    NvmDevice &device() { return *rt->heaps().deviceOf(kHeap); }
};

struct NvmCount
{
    std::uint64_t fences = 0, lines = 0;
};

NvmCount
nvmCount(Store &st)
{
    const NvmStats &s = st.device().stats();
    return {s.fences.load(), s.linesFlushed.load()};
}

/** The mutator. With @p window set, it also counts persistence
 * events over the first kCountWindow ops, running past stop if it
 * must to finish them. */
void
mutatorLoop(Store &st, ClientPhase &ph, OpStream &ops, AckLog &log,
            const std::atomic<bool> &stop, NvmCount *window)
{
    NvmCount start = nvmCount(st);
    std::uint64_t n = 0;
    SpanLog &s = ph.spans;
    const bool trace = s.on();
    while (!stop.load(std::memory_order_acquire) ||
           (window != nullptr && n < kCountWindow)) {
        OpStream::Op op = ops.next();
        std::uint64_t req = n++;
        s.enable(trace && req % kTraceEvery == 0);
        std::uint64_t t0 = nowNs();
        if (!op.write) {
            std::optional<std::int64_t> v;
            {
                ScopedSpan sp(s, SpanName::kMapGet, req);
                v = st.versionOf(op.key);
            }
            ph.readUs.add(static_cast<double>(nowNs() - t0) / 1e3);
            if (v != log.expected(op.key))
                ph.violation("get " + std::to_string(op.key) +
                             " read a stale or torn object");
            ++ph.reads;
        } else {
            auto version = static_cast<std::int64_t>(++st.version);
            Oop o = st.newItem(op.key, version, &s, req);
            {
                ScopedSpan sp(s, SpanName::kMapPut, req);
                st.map.put(op.key, o);
            }
            ph.writeUs.add(static_cast<double>(nowNs() - t0) / 1e3);
            log.ack(op.key, version);
            ++ph.writes;
        }
        ++ph.attempts;
        s.enable(trace);
        st.collectIfDue(s, req);
        if (window != nullptr && n == kCountWindow) {
            NvmCount end = nvmCount(st);
            *window = {end.fences - start.fences, end.lines - start.lines};
            window = nullptr;
        }
    }
}

struct PjoPhase
{
    PhaseTotals t;
    NvmCount phase;  ///< the whole phase
    NvmCount window; ///< the first kCountWindow ops (when counted)
    std::size_t cycles = 0;
};

PjoPhase
runPhase(Store &st, ClientPhase &ph, OpStream &ops, AckLog &log,
         double seconds, bool trace, bool count_window, PhaseClock &clock)
{
    PjoPhase p;
    NvmCount before = nvmCount(st);
    std::size_t cycles0 = st.cycles.size();
    p.t = runClients(clock, {&ph}, seconds, trace, [&](unsigned) {
        mutatorLoop(st, ph, ops, log, clock.stop,
                    count_window ? &p.window : nullptr);
    });
    NvmCount after = nvmCount(st);
    p.phase = {after.fences - before.fences, after.lines - before.lines};
    p.cycles = st.cycles.size() - cycles0;
    return p;
}

void
verifyAll(const Store &st, const AckLog &log, const char *when,
          RunResult &r)
{
    std::vector<std::optional<std::int64_t>> seen(kKeys);
    for (std::int64_t k = 0; k < kKeys; ++k)
        seen[static_cast<std::size_t>(k)] = st.versionOf(k);
    std::string first;
    std::size_t bad = log.check(seen, &first);
    if (bad != 0)
        r.fail(std::string(when) + ": " + std::to_string(bad) +
               " keys lost their last acknowledged write; " + first);
}

} // namespace

void
runPjoHeap(const Options &o, RunResult &r)
{
    std::unique_ptr<Store> st;
    auto setup = [&] {
        st.reset();
        std::uint64_t t0 = nowNs();
        st = std::make_unique<Store>(o.pjhFenceNs);
        return secondsSince(t0);
    };
    Samples setup_s = repeatTimed(o.trace ? 1 : kMinSetups,
                                  o.trace ? 0 : kSetupBudgetS, setup);

    AckLog log(kKeys, zeroVersion);
    OpStream ops(o.seed);
    ClientPhase ph;
    PhaseClock clock;
    double secs = o.trace ? o.seconds / 2.0 : o.seconds;
    PjoPhase timed = runPhase(*st, ph, ops, log, secs, false, true, clock);
    clock.record(r.record, "steady");
    if (!timed.t.wrong.empty())
        r.fail(timed.t.wrong);
    PjoPhase traced;
    if (o.trace) {
        traced = runPhase(*st, ph, ops, log, secs, true, false, clock);
        if (!traced.t.wrong.empty())
            r.fail(traced.t.wrong);
    }

    if (o.dropAckedWrite) {
        // Lose one acknowledged replace: the key gets an older object.
        for (std::int64_t k = 0; k < kKeys; ++k)
            if (log.expected(k) > 0) {
                st->map.put(k, st->newItem(k, log.expected(k) - 1, nullptr, 0));
                break;
            }
    }
    verifyAll(*st, log, "live", r);

    // Power failure -> loadHeap (attach + recovery) -> first verified
    // get, repeated; then every key.
    Samples load_ms, bind_ms, safety_ms;
    SpanLog load_spans; // outside the timed phases, so always on
    load_spans.enable(true);
    std::uint64_t crashes = 0;
    Samples recovery_s = repeatTimed(kMinRecoveries, kRecoveryBudgetS, [&] {
        std::uint64_t i = crashes++;
        std::uint64_t t0 = nowNs();
        st->rt->heaps().crashHeap(kHeap);
        {
            ScopedSpan sp(load_spans, SpanName::kPjhLoad, i);
            st->heap = st->rt->heaps().loadHeap(kHeap);
        }
        st->map = PHashmap::at(st->heap, st->heap->getRoot(kRoot));
        auto key = static_cast<std::int64_t>(
            i * 7919 % static_cast<std::uint64_t>(kKeys));
        if (st->versionOf(key) != log.expected(key))
            r.fail("first get after a crash is wrong for key " +
                   std::to_string(key));
        double s = secondsSince(t0);
        const PjhStats &ps = st->heap->stats();
        load_ms.add(static_cast<double>(ps.lastLoadNs) / 1e6);
        bind_ms.add(static_cast<double>(ps.lastLoadBindNs) / 1e6);
        safety_ms.add(static_cast<double>(ps.lastLoadSafetyNs) / 1e6);
        return s;
    });
    verifyAll(*st, log, "after crash", r);

    const PhaseTotals &m = timed.t;
    r.attempted = m.ops;
    r.failed = m.failedOps;
    Record &rec = r.record;
    rec.num("keys", kKeys);
    recordPhase(rec, m);
    rec.num("gc_budget_bytes", static_cast<double>(kGcBudgetBytes));
    rec.num("gc_cycles_timed", static_cast<double>(timed.cycles));
    std::vector<double> live;
    Samples pause, mark, compact, marked;
    for (const GcCycle &c : st->cycles) {
        live.push_back(c.liveBytes);
        pause.add(c.pauseMs);
        mark.add(c.markMs);
        compact.add(c.compactMs);
        marked.add(c.marked);
    }
    rec.nums("live_bytes_at_collections", live);
    rec.num("count_window_ops", kCountWindow);
    rec.num("count_window_fences", static_cast<double>(timed.window.fences));
    rec.num("setup_repeats", static_cast<double>(setup_s.size()));
    rec.num("recovery_repeats", static_cast<double>(recovery_s.size()));
    TraceSet loads;
    loads.absorb(load_spans);
    rec.num("load_heap_call_ms",
            loads.durationsUs(SpanName::kPjhLoad).median() / 1e3);
    if (st->cycles.size() < 2)
        r.fail("fewer than 2 collections ran; the GC budget is too large "
               "for this run length");

    if (!o.trace) {
        // Device lines over the whole timed phase, GC included.
        setEndToEnd(r.metrics, m, setup_s.median(), m.opsPerS(),
                    recovery_s.median(),
                    static_cast<double>(timed.phase.lines) * 64.0 /
                        (static_cast<double>(m.writes) * kPutPayloadBytes));
        return;
    }

    Report &l = r.metrics;
    const PhaseTotals &t = traced.t;
    TraceSet tr = t.trace;
    tr.absorb(load_spans);
    auto per_window_op = [](std::uint64_t n) {
        return static_cast<double>(n) / static_cast<double>(kCountWindow);
    };
    l.set("nvm.pjh.fences_per_op", per_window_op(timed.window.fences));
    l.set("nvm.pjh.lines_per_op", per_window_op(timed.window.lines));
    l.set("pjh.pnew_ns", tr.durationsUs(SpanName::kPjhPnew).median() * 1e3);
    l.set("pjh.flush_object_ns",
          tr.durationsUs(SpanName::kPjhFlush).median() * 1e3);
    l.set("collections.put_us", tr.durationsUs(SpanName::kMapPut).median());
    l.set("collections.get_us", tr.durationsUs(SpanName::kMapGet).median());
    l.set("pjh.gc.pause_ms.p50", pause.median());
    l.set("pjh.gc.pause_ms.max", pause.max());
    l.set("pjh.gc.mark_ms", mark.median());
    l.set("pjh.gc.compact_ms", compact.median());
    l.set("pjh.gc.cycles", static_cast<double>(st->cycles.size()));
    l.set("pjh.gc.marked_objects", marked.median());
    l.set("pjh.load_ms", load_ms.median());
    l.set("pjh.load_bind_ms", bind_ms.median());
    l.set("pjh.load_safety_ms", safety_ms.median());
    setTraceOverhead(l, m, m.opsPerS(), t, t.opsPerS());
    bypassLayers(l, {"net.", "db.", "nvm.member.", "nvm.coord."});
    rec.raw("spans", tr.summaryJson());
    if (!o.outDir.empty())
        tr.write(o.outDir + "/pjo_heap.spans.tsv");
}

} // namespace perfbench
