/**
 * @file
 * transfer_wire: interactive snapshot-isolation bank transfers over
 * TCP.
 *
 * Why: a transfer is begin(snapshot), 2 x get, 2 x update, commit, so
 * MVCC, row locks, 2PC prepare and the DecisionLog do the work; at 4
 * members most transfers are cross-shard, and multi-member prepares
 * bypass group commit. A gain on kv_wire's commit path that costs
 * 2PC shows up here.
 *
 * Accounts come in groups of kGroupSize; a transfer moves money
 * between two accounts of one group, so every group's sum is
 * conserved. About 1 in 10 transactions is a read-only snapshot
 * audit of one group, which must see that sum. The account set is
 * small, so concurrent transfers conflict and are retried.
 */

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness.hh"
#include "util/rng.hh"
#include "verify.hh"
#include "wire_store.hh"

namespace perfbench {

using namespace espresso;

namespace {

constexpr std::size_t kGroups = 16;
constexpr std::size_t kGroupSize = 4;
constexpr std::size_t kAccounts = kGroups * kGroupSize;
constexpr std::int64_t kOpening = 1000;
constexpr std::int64_t kGroupTotal = kOpening * kGroupSize;
constexpr unsigned kConns = 4;
constexpr unsigned kAuditEvery = 10;
/** An op that keeps failing this often is counted as failed. */
constexpr unsigned kMaxAttempts = 1000;
constexpr const char *kTable = "ACCT";
/** User payload of one transfer: two (id, balance) rows. */
constexpr double kTransferPayloadBytes = 32;
/** Only the balance column of an update is written. */
constexpr std::uint64_t kBalanceMask = 0b10;

db::TableSchema
schema()
{
    return db::TableSchema{kTable,
                           {{"ID", db::DbType::kI64},
                            {"BAL", db::DbType::kI64}},
                           0,
                           db::TableSchema::kNoIndex};
}

std::vector<db::DbValue>
row(std::int64_t id, std::int64_t balance)
{
    return {db::DbValue::ofI64(id), db::DbValue::ofI64(balance)};
}

struct Op
{
    bool audit;
    std::size_t group;
    std::int64_t from, to, amount;
};

/** One connection's seeded transaction stream. */
class OpStream
{
  public:
    OpStream(std::uint64_t seed, unsigned conn)
        : rng_(seed * 0xD1B54A32D192ED03ull + conn + 1)
    {}

    Op
    next()
    {
        Op op{};
        op.audit = rng_.nextBelow(kAuditEvery) == 0;
        op.group = rng_.nextBelow(kGroups);
        auto base = static_cast<std::int64_t>(op.group * kGroupSize);
        std::uint64_t a = rng_.nextBelow(kGroupSize);
        std::uint64_t b = (a + 1 + rng_.nextBelow(kGroupSize - 1)) % kGroupSize;
        op.from = base + static_cast<std::int64_t>(a);
        op.to = base + static_cast<std::int64_t>(b);
        op.amount = 1 + static_cast<std::int64_t>(rng_.nextBelow(10));
        return op;
    }

  private:
    Rng rng_;
};

struct Client
{
    unsigned conn = 0;
    std::unique_ptr<net::WireClient> wire;
    std::uint64_t nextReq = 0;
    /** @name Current phase */
    /// @{
    std::uint64_t committed = 0, crossShard = 0, transfersOk = 0;
    /// @}
    ClientPhase ph;
};

bool
isOk(const net::FrameView &f)
{
    return static_cast<net::WireStatus>(f.status) == net::WireStatus::kOk;
}

/** Send @p w and receive @p n in-order responses. */
std::vector<net::FrameView>
exchange(net::WireClient &c, const net::WireWriter &w, std::size_t n,
         std::vector<std::vector<std::uint8_t>> *bufs)
{
    if (!c.sendFrames(w))
        throw std::runtime_error("wire send failed");
    bufs->resize(n);
    std::vector<net::FrameView> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(recvOrThrow(c, &(*bufs)[i]));
    return out;
}

/** Why a response was not kOk ("" when it was). */
std::string
failure(const net::FrameView &f)
{
    return isOk(f) ? std::string()
                   : net::wireStatusName(static_cast<net::WireStatus>(f.status));
}

/** One audit try over the wire: a snapshot read of @p ids. Returns
 * why the engine refused ("" when it did not: then *balances holds
 * what it read). */
std::string
auditOverWire(net::WireClient &c, const std::vector<std::int64_t> &ids,
              std::vector<std::int64_t> *balances)
{
    net::WireWriter w;
    net::encodeBegin(w, true);
    for (std::int64_t id : ids)
        net::encodeGet(w, kTable, id);
    net::encodeCommit(w);
    std::vector<std::vector<std::uint8_t>> bufs;
    std::vector<net::FrameView> f = exchange(c, w, ids.size() + 2, &bufs);
    balances->clear();
    for (std::size_t i = 0; i < f.size(); ++i) {
        if (!isOk(f[i]))
            return failure(f[i]);
        if (i >= 1 && i <= ids.size())
            balances->push_back(rowI64(f[i], 1));
    }
    return {};
}

std::vector<std::int64_t>
groupIds(std::size_t g)
{
    std::vector<std::int64_t> ids;
    for (std::size_t i = 0; i < kGroupSize; ++i)
        ids.push_back(static_cast<std::int64_t>(g * kGroupSize + i));
    return ids;
}

/** One transfer try over the wire: begin + 2 gets pipelined, then
 * 2 updates + commit pipelined. Returns why it failed, or "". */
std::string
transferOverWire(Client &c, const Op &op)
{
    net::WireWriter w;
    net::encodeBegin(w, true);
    net::encodeGet(w, kTable, op.from);
    net::encodeGet(w, kTable, op.to);
    std::vector<std::vector<std::uint8_t>> bufs;
    std::vector<net::FrameView> f = exchange(*c.wire, w, 3, &bufs);
    if (!isOk(f[0]))
        return failure(f[0]); // nothing was opened
    if (!isOk(f[1]) || !isOk(f[2])) {
        std::string why = failure(isOk(f[1]) ? f[2] : f[1]);
        w.clear();
        net::encodeRollback(w);
        exchange(*c.wire, w, 1, &bufs);
        return why;
    }
    std::int64_t from = rowI64(f[1], 1), to = rowI64(f[2], 1);
    w.clear();
    net::encodeUpdate(w, kTable, row(op.from, from - op.amount),
                      kBalanceMask);
    net::encodeUpdate(w, kTable, row(op.to, to + op.amount), kBalanceMask);
    net::encodeCommit(w);
    f = exchange(*c.wire, w, 3, &bufs);
    if (!isOk(f[2]))
        return failure(f[2]);
    for (int i = 0; i < 2; ++i)
        if (!isOk(f[i]) || net::WireReader(f[i]).getU8() != 1)
            c.ph.violation("commit acknowledged a transfer whose update "
                           "did not apply");
    return {};
}

/** The same transaction in-process, through the ShardedDatabase
 * calls the server makes for it. Returns why it failed, or "". */
std::string
transferInProcess(Client &c, db::ShardedDatabase &db, const Op &op,
                  std::uint64_t req, std::uint32_t parent,
                  std::vector<std::int64_t> *audit_balances)
{
    SpanLog &s = c.ph.spans;
    std::uint64_t id = 0;
    db::Status st;
    {
        ScopedSpan b(s, SpanName::kDbBegin, req, parent);
        st = db.beginDetached({db::Isolation::kSnapshot}, &id);
    }
    if (!st.isOk())
        return st.codeName();
    if (!db.bindDetached(id))
        throw std::runtime_error("bindDetached refused");
    bool killed = false;
    try {
        auto fetch = [&](std::int64_t pk) {
            ScopedSpan f(s, SpanName::kDbFetch, req, parent);
            db::DbRecord rec;
            if (!db.fetchRecord(kTable, pk, &rec))
                throw std::runtime_error("account " + std::to_string(pk) +
                                         " is missing");
            return rec.values.at(1).i;
        };
        if (op.audit) {
            audit_balances->clear();
            for (std::int64_t pk : groupIds(op.group))
                audit_balances->push_back(fetch(pk));
        } else {
            std::int64_t from = fetch(op.from), to = fetch(op.to);
            for (auto [pk, bal] : {std::pair{op.from, from - op.amount},
                                   std::pair{op.to, to + op.amount}}) {
                ScopedSpan p(s, SpanName::kDbPersist, req, parent);
                db::DbRecord rec;
                rec.values = row(pk, bal);
                rec.dirtyMask = kBalanceMask;
                if (!db.updateRecord(kTable, rec))
                    throw std::runtime_error("update found no account");
            }
        }
    } catch (const db::TxnAbortError &) {
        killed = true; // commitDetached reports the engine's verdict
    } catch (const db::WalFullError &) {
        killed = true;
    }
    db.unbindDetached(id);
    ScopedSpan cm(s, SpanName::kDbCommit, req, parent);
    st = db.commitDetached(id);
    if (killed && st.isOk())
        c.ph.violation("an aborted transaction committed");
    return st.isOk() ? std::string() : st.codeName();
}

/** Closed loop, one transaction at a time, retrying refused tries. */
void
clientLoop(Client &c, OpStream &ops, db::ShardedDatabase &db, bool inproc,
           const std::atomic<bool> &stop)
{
    ClientPhase &ph = c.ph;
    std::vector<std::int64_t> balances;
    while (!stop.load(std::memory_order_acquire)) {
        Op op = ops.next();
        std::uint64_t req = c.nextReq++;
        std::uint64_t t0 = nowNs();
        std::uint32_t top = ph.spans.begin(
            inproc ? (op.audit ? SpanName::kInprocRead
                               : SpanName::kInprocWrite)
                   : (op.audit ? SpanName::kWireRead : SpanName::kWireWrite),
            req);
        bool ok = false;
        for (unsigned attempt = 0; attempt < kMaxAttempts && !ok; ++attempt) {
            ++ph.attempts;
            std::string why =
                inproc     ? transferInProcess(c, db, op, req, top, &balances)
                : op.audit ? auditOverWire(*c.wire, groupIds(op.group),
                                           &balances)
                           : transferOverWire(c, op);
            ok = why.empty();
            if (!ok) {
                ph.attemptFailed(why);
                // In-process retries have no round trip to pace them;
                // back off so they do not spin on the holder's row
                // locks while its 2PC fences drain.
                if (inproc)
                    std::this_thread::sleep_for(std::chrono::microseconds(
                        50u << std::min(attempt, 4u)));
            }
        }
        ph.spans.end(top);
        double us = static_cast<double>(nowNs() - t0) / 1e3;
        if (!ok) {
            ++ph.failedOps;
        } else if (op.audit) {
            std::string bad;
            if (checkGroupSums(balances, kGroupSize, kGroupTotal, &bad) != 0)
                ph.violation("audit snapshot: " + bad);
            ph.readUs.add(us);
        } else {
            ph.writeUs.add(us);
            ++c.transfersOk;
            if (db.shardIndexForPk(op.from) != db.shardIndexForPk(op.to))
                ++c.crossShard;
        }
        if (ok)
            ++c.committed;
        ++(op.audit ? ph.reads : ph.writes);
    }
}

struct TransferPhase
{
    PhaseTotals t;
    std::uint64_t committed = 0, crossShard = 0, transfersOk = 0;
    WireCounters delta;
};

TransferPhase
runPhase(WireStore &store, std::vector<Client> &clients, double seconds,
         bool trace, bool inproc, std::uint64_t seed, PhaseClock &clock,
         RunResult &r)
{
    std::vector<OpStream> streams;
    std::vector<ClientPhase *> phases;
    for (Client &c : clients) {
        streams.emplace_back(seed, c.conn);
        phases.push_back(&c.ph);
        c.committed = c.crossShard = c.transfersOk = 0;
    }
    WireCounters before = store.counters();
    TransferPhase p;
    p.t = runClients(clock, phases, seconds, trace, [&](unsigned i) {
        clientLoop(clients[i], streams[i], store.db(), inproc, clock.stop);
    });
    p.delta = store.counters() - before;
    for (Client &c : clients) {
        p.committed += c.committed;
        p.crossShard += c.crossShard;
        p.transfersOk += c.transfersOk;
    }
    if (!p.t.wrong.empty())
        r.fail(p.t.wrong);
    return p;
}

/** One snapshot over every account: all group sums must hold. */
void
verifyOverWire(WireStore &store, const char *when, RunResult &r)
{
    auto conn = connectClients(store.port(), 1);
    std::vector<std::int64_t> ids, balances;
    for (std::size_t g = 0; g < kGroups; ++g)
        for (std::int64_t id : groupIds(g))
            ids.push_back(id);
    bool read = false;
    for (unsigned i = 0; i < kMaxAttempts && !read; ++i)
        read = auditOverWire(*conn[0], ids, &balances).empty();
    std::string bad;
    if (!read)
        r.fail(std::string(when) + ": the full audit never ran");
    else if (checkGroupSums(balances, kGroupSize, kGroupTotal, &bad) != 0)
        r.fail(std::string(when) + ": balance not conserved, " + bad);
}

} // namespace

void
runTransferWire(const Options &o, RunResult &r)
{
    std::unique_ptr<WireStore> store;
    std::vector<Client> clients(kConns);
    auto setup = [&] {
        for (Client &c : clients)
            c.wire.reset();
        store.reset();
        std::uint64_t t0 = nowNs();
        store = std::make_unique<WireStore>(schema(), 4 * kAccounts);
        for (std::size_t id = 0; id < kAccounts; ++id) {
            db::DbRecord rec;
            rec.values = row(static_cast<std::int64_t>(id), kOpening);
            store->db().persistRecord(kTable, rec);
        }
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

    PhaseClock clock;
    double secs = o.trace ? o.seconds / 3.0 : o.seconds;
    TransferPhase timed =
        runPhase(*store, clients, secs, false, false, o.seed, clock, r);
    clock.record(r.record, "steady");
    TransferPhase traced, inproc;
    if (o.trace) {
        traced = runPhase(*store, clients, secs, true, false, o.seed, clock, r);
        inproc = runPhase(*store, clients, secs, true, true, o.seed, clock, r);
    }

    if (o.dropAckedWrite) {
        // Lose one leg of an acknowledged transfer.
        db::DbRecord rec;
        store->db().fetchRecord(kTable, 0, &rec);
        rec.values[1].i += 1;
        store->db().persistRecord(kTable, rec);
    }
    verifyOverWire(*store, "live", r);

    store->stopServer();
    for (Client &c : clients)
        c.wire.reset();
    Samples crash_ms;
    std::size_t crashes = 0;
    Samples recovery_s = repeatTimed(kMinRecoveries, kRecoveryBudgetS, [&] {
        store->stopServer();
        std::uint64_t t0 = nowNs();
        store->db().crash();
        crash_ms.add(static_cast<double>(nowNs() - t0) / 1e6);
        store->startServer();
        auto conn = connectClients(store->port(), 1);
        std::vector<std::int64_t> balances;
        std::size_t g = crashes++ % kGroups;
        std::string bad;
        if (!auditOverWire(*conn[0], groupIds(g), &balances).empty() ||
            checkGroupSums(balances, kGroupSize, kGroupTotal, &bad) != 0)
            r.fail("first audit after a crash failed " + bad);
        return secondsSince(t0);
    });
    verifyOverWire(*store, "after crash", r);
    store->stopServer();

    const PhaseTotals &m = timed.t;
    r.attempted = m.ops;
    r.failed = m.failedOps;
    Record &rec = r.record;
    rec.num("accounts", kAccounts);
    rec.num("account_groups", kGroups);
    rec.num("connections", kConns);
    recordPhase(rec, m);
    rec.num("db.txn.cross_shard_share",
            ratio(static_cast<double>(timed.crossShard),
                  static_cast<double>(timed.transfersOk)));
    rec.num("setup_repeats", static_cast<double>(setup_s.size()));
    rec.num("recovery_repeats", static_cast<double>(recovery_s.size()));

    double untraced = static_cast<double>(timed.committed) / m.wallS;
    if (!o.trace) {
        setEndToEnd(r.metrics, m, setup_s.median(), untraced,
                    recovery_s.median(),
                    static_cast<double>(timed.delta.memberLines +
                                        timed.delta.coordLines) *
                        64.0 /
                        (static_cast<double>(timed.transfersOk) *
                         kTransferPayloadBytes));
        return;
    }

    Report &l = r.metrics;
    const PhaseTotals &t = traced.t;
    const TraceSet &in = inproc.t.trace;
    setWireLayers(l, t, traced.delta, in,
                  static_cast<double>(traced.committed), crash_ms.median());
    l.set("db.txn.useful_ratio", ratio(static_cast<double>(traced.committed),
                                       static_cast<double>(t.attempts)));
    l.set("db.txn.cross_shard_share",
          ratio(static_cast<double>(traced.crossShard),
                static_cast<double>(traced.transfersOk)));
    setTraceOverhead(l, m, untraced, t,
                     static_cast<double>(traced.committed) / t.wallS);

    rec.raw("spans.wire", t.trace.summaryJson());
    rec.raw("spans.inproc", in.summaryJson());
    if (!o.outDir.empty()) {
        t.trace.write(o.outDir + "/transfer_wire.wire.spans.tsv");
        in.write(o.outDir + "/transfer_wire.inproc.spans.tsv");
    }
}

} // namespace perfbench
