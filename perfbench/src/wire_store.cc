#include "wire_store.hh"

#include <stdexcept>

namespace perfbench {

using namespace espresso;

WireCounters
WireCounters::operator-(const WireCounters &o) const
{
    WireCounters d;
    d.memberFences = memberFences - o.memberFences;
    d.memberLines = memberLines - o.memberLines;
    d.memberFlushCalls = memberFlushCalls - o.memberFlushCalls;
    d.coordFences = coordFences - o.coordFences;
    d.coordLines = coordLines - o.coordLines;
    d.gcTxns = gcTxns - o.gcTxns;
    d.gcBatches = gcBatches - o.gcBatches;
    d.gcWindowTimeouts = gcWindowTimeouts - o.gcWindowTimeouts;
    d.frames = frames - o.frames;
    d.admissionRejects = admissionRejects - o.admissionRejects;
    return d;
}

WireStore::WireStore(const db::TableSchema &schema,
                     std::size_t rows_per_member)
{
    db::ShardedDatabaseConfig cfg;
    cfg.shards = kMembers;
    cfg.vnodes = ShardRouter::kDefaultVnodes;
    // Devices sized to the data (at most 8,192 small rows per member):
    // a crash copies every device whole, and an oversized one would
    // make that copy, not the engine's recovery, most of recovery_s.
    cfg.shard.rowRegionSize = 2u << 20;
    cfg.shard.walSize = 1u << 20;
    cfg.shard.rowsPerTable = rows_per_member;
    cfg.shard.walShards = 32;
    cfg.shard.groupCommitWindowUs = db::DatabaseConfig::kWindowAuto;
    NvmConfig nvm;
    nvm.fenceDrainSerialized = true;
    db_ = std::make_unique<db::ShardedDatabase>(cfg, nvm);
    db_->createTable(schema);
}

WireStore::~WireStore()
{
    stopServer();
}

void
WireStore::setFenceLatency(std::uint64_t ns)
{
    for (unsigned i = 0; i < db_->shardCount(); ++i)
        db_->shard(i).device().config().fenceLatencyNs = ns;
    db_->coordinatorDevice().config().fenceLatencyNs = ns;
}

void
WireStore::startServer()
{
    net::ServerConfig scfg;
    scfg.workers = 2;
    scfg.committers = 1;
    scfg.queueDepth = 128;
    server_ = std::make_unique<net::Server>(db_.get(), scfg);
    server_->start();
}

void
WireStore::stopServer()
{
    if (server_)
        server_->stop();
    server_.reset();
}

WireCounters
WireStore::counters() const
{
    WireCounters c;
    for (unsigned i = 0; i < db_->shardCount(); ++i) {
        db::Database &m = db_->shard(i);
        const NvmStats &s = m.device().stats();
        c.memberFences += s.fences.load();
        c.memberLines += s.linesFlushed.load();
        c.memberFlushCalls += s.flushCalls.load();
        db::CommitCoordinator::Stats g = m.commitCoordinator().stats();
        c.gcTxns += g.txns;
        c.gcBatches += g.batches;
        c.gcWindowTimeouts += g.windowTimeouts;
    }
    const NvmStats &cs = db_->coordinatorDevice().stats();
    c.coordFences = cs.fences.load();
    c.coordLines = cs.linesFlushed.load();
    if (server_) {
        net::ServerStats ss = server_->stats();
        c.frames = ss.frames;
        c.admissionRejects = ss.admissionRejects;
    }
    return c;
}

void
setWireLayers(Report &l, const PhaseTotals &t, const WireCounters &d,
              const TraceSet &inproc, double ops, double recovery_ms)
{
    auto per_op = [ops](std::uint64_t n) {
        return ratio(static_cast<double>(n), ops);
    };
    l.set("net.frames_per_op", per_op(d.frames));
    l.set("net.admission_rejects_per_op", per_op(d.admissionRejects));
    l.set("net.read_overhead_us",
          t.readUs.median() -
              inproc.durationsUs(SpanName::kInprocRead).median());
    l.set("net.write_overhead_us",
          t.writeUs.median() -
              inproc.durationsUs(SpanName::kInprocWrite).median());
    Samples fetch = inproc.durationsUs(SpanName::kDbFetch);
    Samples persist = inproc.durationsUs(SpanName::kDbPersist);
    Samples commit = inproc.durationsUs(SpanName::kDbCommit);
    l.set("db.fetch_us.p50", fetch.median());
    l.set("db.fetch_us.p99", fetch.tail(0.99));
    l.set("db.persist_us.p50", persist.median());
    l.set("db.persist_us.p99", persist.tail(0.99));
    l.set("db.commit_us.p50", commit.median());
    l.set("db.commit_us.p99", commit.tail(0.99));
    l.set("db.group_commit.avg_batch",
          ratio(static_cast<double>(d.gcTxns),
                static_cast<double>(d.gcBatches)));
    l.set("db.group_commit.window_timeouts_per_batch",
          ratio(static_cast<double>(d.gcWindowTimeouts),
                static_cast<double>(d.gcBatches)));
    l.set("db.recovery_ms", recovery_ms);
    l.set("nvm.member.fences_per_op", per_op(d.memberFences));
    l.set("nvm.member.lines_per_op", per_op(d.memberLines));
    l.set("nvm.member.flush_calls_per_op", per_op(d.memberFlushCalls));
    l.set("nvm.coord.fences_per_op", per_op(d.coordFences));
    bypassLayers(l, {"nvm.pjh.", "pjh.", "collections."});
}

std::vector<std::unique_ptr<net::WireClient>>
connectClients(std::uint16_t port, unsigned n)
{
    std::vector<std::unique_ptr<net::WireClient>> out;
    for (unsigned i = 0; i < n; ++i) {
        auto c = std::make_unique<net::WireClient>();
        if (!c->connect("127.0.0.1", port))
            throw std::runtime_error("cannot connect to the wire server");
        out.push_back(std::move(c));
    }
    return out;
}

net::FrameView
recvOrThrow(net::WireClient &c, std::vector<std::uint8_t> *buf)
{
    net::FrameView f;
    if (!c.recvFrame(buf, &f))
        throw std::runtime_error("wire connection closed mid-run");
    return f;
}

std::int64_t
rowI64(const net::FrameView &f, std::size_t col)
{
    net::WireReader r(f);
    std::vector<db::DbValue> row = r.getRow();
    if (!r.ok() || col >= row.size() || row[col].type != db::DbType::kI64)
        throw std::runtime_error("malformed get response");
    return row[col].i;
}

} // namespace perfbench
