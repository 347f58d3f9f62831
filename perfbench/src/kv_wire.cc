/**
 * @file
 * kv_wire: YCSB-A over TCP.
 *
 * Why: every op is one frame and every put one auto-committed
 * single-member transaction, so frame parsing, single-member commits
 * and group-commit batching across connections do the work; 2PC, the
 * DecisionLog and the PJH are never touched.
 *
 * Four connections each run a closed loop holding kDepth requests in
 * flight: 50% get of a uniform key, 50% put. Puts of connection c go
 * only to keys k with k % kConns == c, so each key has one writer and
 * its last acknowledged value is exact.
 */

#include <algorithm>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "harness.hh"
#include "util/rng.hh"
#include "verify.hh"
#include "wire_store.hh"

namespace perfbench {

using namespace espresso;

namespace {

/** Far more keys than the 32 requests in flight. Not more: recovery
 * rebuilds every row's index entry, and at 65,536 rows that rebuild
 * drifted by over 25% between runs on a shared host, which swamped
 * recovery_s. */
constexpr std::int64_t kKeys = 16384;
constexpr unsigned kConns = 4;
constexpr unsigned kDepth = 8;
constexpr std::size_t kPreloadBatch = 256;
constexpr const char *kTable = "KV";
/** User payload of one put: the row's two i64 columns. */
constexpr double kPutPayloadBytes = 16;
/** Members are sized for a ring skew of up to 2x the fair share. */
constexpr std::size_t kRowsPerMember = 2 * kKeys / WireStore::kMembers;

db::TableSchema
schema()
{
    return db::TableSchema{kTable,
                           {{"K", db::DbType::kI64}, {"V", db::DbType::kI64}},
                           0,
                           db::TableSchema::kNoIndex};
}

std::int64_t
preloadValue(std::int64_t key)
{
    return key;
}

/** A value carries its key in the low 16 bits, so any read can be
 * checked for the row it came from, and its writer's version above. */
std::int64_t
valueOf(std::int64_t key, std::uint64_t version)
{
    return static_cast<std::int64_t>(version << 16) | key;
}

db::DbRecord
row(std::int64_t key, std::int64_t value)
{
    db::DbRecord r;
    r.values = {db::DbValue::ofI64(key), db::DbValue::ofI64(value)};
    return r;
}

/** One connection's seeded op stream. */
class OpStream
{
  public:
    OpStream(std::uint64_t seed, unsigned conn)
        : rng_(seed * 0x9E3779B97F4A7C15ull + conn + 1), conn_(conn)
    {}

    struct Op
    {
        bool write;
        std::int64_t key;
    };

    Op
    next()
    {
        if (!rng_.nextBool())
            return {false, static_cast<std::int64_t>(rng_.nextBelow(kKeys))};
        return {true, static_cast<std::int64_t>(
                          rng_.nextBelow(kKeys / kConns) * kConns + conn_)};
    }

  private:
    Rng rng_;
    unsigned conn_;
};

/** Per-connection state; lives across the run's phases. */
struct Client
{
    unsigned conn = 0;
    std::unique_ptr<net::WireClient> wire;
    std::uint64_t version = 0; ///< last version this writer used
    std::uint64_t nextReq = 0;
    std::uint64_t writesOk = 0; ///< current phase
    ClientPhase ph;

    std::int64_t
    nextValue(std::int64_t key)
    {
        return valueOf(key, ++version * kConns + conn);
    }
};

/** A read must name its key; a read of the client's own key must see
 * its last acknowledged write (responses arrive in request order). */
void
checkRead(Client &c, const AckLog &log, std::int64_t key, std::int64_t v)
{
    // Only this client writes its own keys, so only those entries of
    // the log may be read here.
    bool foreign = (v & 0xffff) != key;
    bool own = key % kConns == c.conn;
    if (!foreign && (!own || v == log.expected(key)))
        return;
    c.ph.violation("get " + std::to_string(key) + " returned " +
                   std::to_string(v) +
                   (foreign ? std::string(", another key's value")
                            : ", expected " +
                                  std::to_string(log.expected(key))));
}

/** A request on the wire, awaiting its response. */
struct Pending
{
    OpStream::Op op;
    std::int64_t value;
    std::uint64_t req;
    std::uint64_t sentNs;
};

bool
writeInFlight(const std::deque<Pending> &inflight, std::int64_t key)
{
    for (const Pending &p : inflight)
        if (p.op.write && p.op.key == key)
            return true;
    return false;
}

/** Closed loop with kDepth requests in flight until stop. */
void
wireLoop(Client &c, OpStream &ops, AckLog &log,
         const std::atomic<bool> &stop)
{
    std::deque<Pending> inflight;
    std::vector<std::uint8_t> buf;
    net::WireWriter w;
    for (;;) {
        if (!stop.load(std::memory_order_acquire) &&
            inflight.size() < kDepth) {
            w.clear();
            std::size_t first = inflight.size();
            while (inflight.size() < kDepth) {
                OpStream::Op op = ops.next();
                // Never pipeline two puts of one key: the second would
                // meet the first's row lock (held until its group
                // commit) and be refused kBusy. Draw again instead.
                while (op.write && writeInFlight(inflight, op.key))
                    op = ops.next();
                std::int64_t value = 0;
                if (op.write) {
                    value = c.nextValue(op.key);
                    net::encodePut(w, kTable,
                                   {db::DbValue::ofI64(op.key),
                                    db::DbValue::ofI64(value)});
                } else {
                    net::encodeGet(w, kTable, op.key);
                }
                inflight.push_back({op, value, c.nextReq++, 0});
            }
            std::uint64_t t = nowNs();
            for (std::size_t i = first; i < inflight.size(); ++i)
                inflight[i].sentNs = t;
            if (!c.wire->sendFrames(w))
                throw std::runtime_error("wire send failed");
        }
        if (inflight.empty())
            return;
        net::FrameView f = recvOrThrow(*c.wire, &buf);
        std::uint64_t t = nowNs();
        Pending p = inflight.front();
        inflight.pop_front();
        double us = static_cast<double>(t - p.sentNs) / 1e3;
        bool ok = static_cast<net::WireStatus>(f.status) ==
                  net::WireStatus::kOk;
        ClientPhase &ph = c.ph;
        ++ph.attempts;
        if (!ok) {
            ph.attemptFailed(net::wireStatusName(
                static_cast<net::WireStatus>(f.status)));
            ++ph.failedOps;
        }
        if (p.op.write) {
            ph.spans.add(SpanName::kWireWrite, p.req, p.sentNs, t);
            if (ok) {
                log.ack(p.op.key, p.value);
                ph.writeUs.add(us);
                ++c.writesOk;
            }
            ++ph.writes;
        } else {
            ph.spans.add(SpanName::kWireRead, p.req, p.sentNs, t);
            if (ok) {
                checkRead(c, log, p.op.key, rowI64(f, 1));
                ph.readUs.add(us);
            }
            ++ph.reads;
        }
    }
}

/** Same op stream, in-process, through the calls the server makes:
 * fetchRecord for a get; beginDetached / bindDetached /
 * persistRecord / unbindDetached / commitDetached on the key's member
 * for a put. One op at a time per thread. */
void
inprocLoop(Client &c, OpStream &ops, AckLog &log, db::ShardedDatabase &db,
           const std::atomic<bool> &stop)
{
    SpanLog &s = c.ph.spans;
    while (!stop.load(std::memory_order_acquire)) {
        OpStream::Op op = ops.next();
        std::uint64_t req = c.nextReq++;
        bool ok = true;
        std::string why = "not-found";
        if (!op.write) {
            ScopedSpan top(s, SpanName::kInprocRead, req);
            db::DbRecord rec;
            bool found;
            {
                ScopedSpan f(s, SpanName::kDbFetch, req, top.id());
                found = db.fetchRecord(kTable, op.key, &rec);
            }
            ok = found;
            if (found)
                checkRead(c, log, op.key, rec.values.at(1).i);
        } else {
            ScopedSpan top(s, SpanName::kInprocWrite, req);
            db::Database &m = db.shardForPk(op.key);
            std::int64_t value = c.nextValue(op.key);
            std::uint64_t sid = 0;
            db::Status st;
            {
                ScopedSpan b(s, SpanName::kDbBegin, req, top.id());
                st = m.beginDetached({}, &sid);
            }
            if (st.isOk()) {
                if (!m.bindDetached(sid))
                    throw std::runtime_error("bindDetached refused");
                try {
                    ScopedSpan p(s, SpanName::kDbPersist, req, top.id());
                    m.persistRecord(kTable, row(op.key, value));
                } catch (const std::exception &e) {
                    st = db::Status::make(db::StatusCode::kAborted, e.what());
                }
                m.unbindDetached(sid);
                if (st.isOk()) {
                    ScopedSpan cm(s, SpanName::kDbCommit, req, top.id());
                    st = m.commitDetached(sid);
                } else {
                    (void)m.rollbackDetached(sid);
                }
            }
            ok = st.isOk();
            why = st.codeName();
            if (ok) {
                log.ack(op.key, value);
                ++c.writesOk;
            }
        }
        ++c.ph.attempts;
        if (!ok) {
            c.ph.attemptFailed(why);
            ++c.ph.failedOps;
        }
        ++(op.write ? c.ph.writes : c.ph.reads);
    }
}

/** One phase's tallies plus the layer counters it moved. */
struct KvPhase
{
    PhaseTotals t;
    std::uint64_t writesOk = 0;
    WireCounters delta;
};

KvPhase
runPhase(WireStore &store, std::vector<Client> &clients, AckLog &log,
         double seconds, bool trace, bool inproc, std::uint64_t seed,
         PhaseClock &clock, RunResult &r)
{
    std::vector<OpStream> streams;
    std::vector<ClientPhase *> phases;
    for (Client &c : clients) {
        streams.emplace_back(seed, c.conn);
        phases.push_back(&c.ph);
        c.writesOk = 0;
    }
    WireCounters before = store.counters();
    KvPhase p;
    p.t = runClients(clock, phases, seconds, trace, [&](unsigned i) {
        if (inproc)
            inprocLoop(clients[i], streams[i], log, store.db(), clock.stop);
        else
            wireLoop(clients[i], streams[i], log, clock.stop);
    });
    p.delta = store.counters() - before;
    for (Client &c : clients)
        p.writesOk += c.writesOk;
    if (!p.t.wrong.empty())
        r.fail(p.t.wrong);
    return p;
}

/** Read every key back over the wire, pipelined, and compare with
 * the acknowledged writes. */
void
verifyOverWire(WireStore &store, const AckLog &log, const char *when,
               RunResult &r)
{
    auto conns = connectClients(store.port(), 1);
    net::WireClient &c = *conns[0];
    std::vector<std::optional<std::int64_t>> seen(kKeys);
    std::vector<std::uint8_t> buf;
    constexpr std::int64_t kBatch = 256;
    for (std::int64_t base = 0; base < kKeys; base += kBatch) {
        net::WireWriter w;
        for (std::int64_t k = base; k < base + kBatch; ++k)
            net::encodeGet(w, kTable, k);
        if (!c.sendFrames(w))
            throw std::runtime_error("wire send failed");
        for (std::int64_t k = base; k < base + kBatch; ++k) {
            net::FrameView f = recvOrThrow(c, &buf);
            if (static_cast<net::WireStatus>(f.status) ==
                net::WireStatus::kOk)
                seen[static_cast<std::size_t>(k)] = rowI64(f, 1);
        }
    }
    std::string first;
    std::size_t bad = log.check(seen, &first);
    if (bad != 0)
        r.fail(std::string(when) + ": " + std::to_string(bad) +
               " keys lost their last acknowledged write; " + first);
}

/** Bulk preload: one thread per member writes the keys the ring gives
 * it, kPreloadBatch rows per transaction, so set-up neither commits
 * row by row nor rides the group-commit window. */
void
preload(WireStore &store)
{
    db::ShardedDatabase &db = store.db();
    std::vector<std::exception_ptr> errors(WireStore::kMembers);
    std::vector<std::thread> threads;
    for (unsigned m = 0; m < WireStore::kMembers; ++m)
        threads.emplace_back([&, m] {
            try {
                db::Database &member = db.shard(m);
                std::vector<std::int64_t> keys;
                for (std::int64_t k = 0; k < kKeys; ++k)
                    if (db.shardIndexForPk(k) == m)
                        keys.push_back(k);
                for (std::size_t i = 0; i < keys.size(); i += kPreloadBatch) {
                    std::size_t end = std::min(keys.size(), i + kPreloadBatch);
                    db::Txn t = member.beginTxn();
                    for (std::size_t j = i; j < end; ++j)
                        member.persistRecord(
                            kTable, row(keys[j], preloadValue(keys[j])));
                    db::Status st = t.commit();
                    if (!st.isOk())
                        throw std::runtime_error("preload commit: " +
                                                 st.message());
                }
            } catch (...) {
                errors[m] = std::current_exception();
            }
        });
    for (auto &th : threads)
        th.join();
    for (auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace

void
runKvWire(const Options &o, RunResult &r)
{
    std::unique_ptr<WireStore> store;
    std::vector<Client> clients(kConns);
    // Set-up: members, table, a bulk preload with the fence model off,
    // then the model, the server and the connections.
    auto setup = [&] {
        for (Client &c : clients)
            c.wire.reset();
        store.reset();
        std::uint64_t t0 = nowNs();
        store = std::make_unique<WireStore>(schema(), kRowsPerMember);
        preload(*store);
        store->setFenceLatency(o.wireFenceNs);
        store->startServer();
        auto conns = connectClients(store->port(), kConns);
        for (unsigned i = 0; i < kConns; ++i) {
            clients[i].conn = i;
            clients[i].wire = std::move(conns[i]);
        }
        return secondsSince(t0);
    };
    Samples setup_s = repeatTimed(o.trace ? 1 : kMinSetups,
                                  o.trace ? 0 : kSetupBudgetS, setup);

    AckLog log(kKeys, preloadValue);
    PhaseClock clock;
    double secs = o.trace ? o.seconds / 3.0 : o.seconds;
    KvPhase timed =
        runPhase(*store, clients, log, secs, false, false, o.seed, clock, r);
    clock.record(r.record, "steady");
    KvPhase traced, inproc;
    if (o.trace) {
        traced = runPhase(*store, clients, log, secs, true, false, o.seed,
                          clock, r);
        inproc = runPhase(*store, clients, log, secs, true, true, o.seed,
                          clock, r);
    }

    if (o.dropAckedWrite) {
        // Lose one acknowledged put: its key goes back to the preload.
        for (std::int64_t k = 0; k < kKeys; ++k)
            if (log.expected(k) != preloadValue(k)) {
                store->db().persistRecord(kTable, row(k, preloadValue(k)));
                break;
            }
    }
    verifyOverWire(*store, log, "live", r);

    // Power failure -> recovery -> restarted server -> first verified
    // read over the wire, repeated; then every key again.
    for (Client &c : clients)
        c.wire.reset();
    Samples crash_ms;
    std::int64_t crashes = 0;
    Samples recovery_s = repeatTimed(kMinRecoveries, kRecoveryBudgetS, [&] {
        store->stopServer();
        std::uint64_t t0 = nowNs();
        store->db().crash();
        crash_ms.add(static_cast<double>(nowNs() - t0) / 1e6);
        store->startServer();
        auto conn = connectClients(store->port(), 1);
        std::int64_t key = (crashes++ * 7919) % kKeys;
        std::vector<std::uint8_t> buf;
        net::WireWriter w;
        net::encodeGet(w, kTable, key);
        if (!conn[0]->sendFrames(w))
            throw std::runtime_error("wire send failed");
        net::FrameView f = recvOrThrow(*conn[0], &buf);
        if (static_cast<net::WireStatus>(f.status) != net::WireStatus::kOk ||
            rowI64(f, 1) != log.expected(key))
            r.fail("first read after a crash is wrong for key " +
                   std::to_string(key));
        return secondsSince(t0);
    });
    verifyOverWire(*store, log, "after crash", r);
    store->stopServer();

    const PhaseTotals &m = timed.t;
    r.attempted = m.ops;
    r.failed = m.failedOps;
    Record &rec = r.record;
    rec.num("keys", kKeys);
    rec.num("connections", kConns);
    rec.num("pipeline_depth", kDepth);
    recordPhase(rec, m);
    rec.num("setup_repeats", static_cast<double>(setup_s.size()));
    rec.num("recovery_repeats", static_cast<double>(recovery_s.size()));
    rec.num("db.txn.cross_shard_share", 0);

    if (!o.trace) {
        setEndToEnd(r.metrics, m, setup_s.median(), m.opsPerS(),
                    recovery_s.median(),
                    static_cast<double>(timed.delta.memberLines +
                                        timed.delta.coordLines) *
                        64.0 /
                        (static_cast<double>(timed.writesOk) *
                         kPutPayloadBytes));
        return;
    }

    Report &l = r.metrics;
    const PhaseTotals &t = traced.t;
    const TraceSet &in = inproc.t.trace;
    setWireLayers(l, t, traced.delta, in, static_cast<double>(t.ops),
                  crash_ms.median());
    l.set("db.txn.useful_ratio", static_cast<double>(traced.writesOk) /
                                     static_cast<double>(t.writes));
    l.set("db.txn.cross_shard_share", 0);
    setTraceOverhead(l, m, m.opsPerS(), t, t.opsPerS());

    rec.raw("spans.wire", t.trace.summaryJson());
    rec.raw("spans.inproc", in.summaryJson());
    if (!o.outDir.empty()) {
        t.trace.write(o.outDir + "/kv_wire.wire.spans.tsv");
        in.write(o.outDir + "/kv_wire.inproc.spans.tsv");
    }
}

} // namespace perfbench
