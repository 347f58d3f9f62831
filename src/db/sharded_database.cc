#include "db/sharded_database.hh"

#include <bit>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "db/wal.hh"
#include "nvm/crash_injector.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace espresso {
namespace db {

namespace {

std::atomic<std::uint64_t> g_shardedSerial{1};

} // namespace

/** One bracket's commit in flight: the bracket, its members'
 * contexts, and the 2PC bookkeeping shared by the continuations that
 * run on the members' drainers. */
struct ShardedDatabase::CommitChain
{
    struct Member
    {
        unsigned idx = 0;
        Database::TxContext *ctx = nullptr;
        /** A detached bracket's member context (null: a thread's). */
        std::unique_ptr<Database::TxContext> owned;
        bool prepared = false; ///< logged anything: prepare + finish
    };

    TxState st;
    std::vector<Member> members;
    Word txnId = 0;
    unsigned slot = kNoCoordSlot;
    /** Steps of the current phase still in flight, plus one for the
     * phase's starter (so the last step can't outrun the fan-out). */
    std::atomic<unsigned> pending{0};
    SpinLock errMu;
    std::exception_ptr err; ///< first failure (guarded by errMu)
    Database::StepFn done;

    void
    noteError(std::exception_ptr e)
    {
        SpinGuard g(errMu);
        if (!err)
            err = std::move(e);
    }

    bool
    failed()
    {
        SpinGuard g(errMu);
        return err != nullptr;
    }
};

ShardedDatabase::ShardedDatabase(const ShardedDatabaseConfig &cfg,
                                 NvmConfig nvm_cfg)
    : cfg_(cfg), nvmCfg_(nvm_cfg),
      serial_(g_shardedSerial.fetch_add(1, std::memory_order_relaxed))
{
    unsigned shards =
        cfg.shards ? cfg.shards : envUnsigned("ESPRESSO_SHARDS", 1);
    vnodes_ = cfg.vnodes
                  ? cfg.vnodes
                  : envUnsigned("ESPRESSO_SHARD_VNODES",
                                ShardRouter::kDefaultVnodes);
    coordDev_ = std::make_unique<NvmDevice>(
        DecisionLog::bytesFor(kCoordSlots), nvm_cfg);
    coordLog_ = DecisionLog(coordDev_.get(), 0, kCoordSlots);
    coordLog_.format();
    // Reserved to the cap so grow()'s push_back never reallocates
    // under concurrent indexed readers.
    shards_.reserve(RingManifestData::kMaxShards);
    for (unsigned i = 0; i < shards; ++i)
        shards_.push_back(
            std::make_unique<Database>(cfg.shard, nvm_cfg, &clock_));
    memberCount_.store(shards, std::memory_order_release);
    publishRouting(ShardRouter(shards, vnodes_),
                   ShardRouter(shards, vnodes_), false);
}

ShardedDatabase::~ShardedDatabase() = default;

void
ShardedDatabase::publishRouting(ShardRouter committed, ShardRouter next,
                                bool migrating)
{
    auto r = std::make_unique<DbRouting>();
    r->committed = std::move(committed);
    r->next = std::move(next);
    r->migrating = migrating;
    const DbRouting *raw = r.get();
    {
        SpinGuard g(routingMu_);
        routingHistory_.push_back(std::move(r));
    }
    routing_.store(raw, std::memory_order_release);
}

ShardedDatabase::TxState &
ShardedDatabase::txState() const
{
    static thread_local std::unordered_map<std::uint64_t, TxState> map;
    TxState &st = map[serial_];
    std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (st.gen != gen) {
        st = TxState{};
        st.gen = gen;
    }
    // Size by the atomic listed-member count, not shards_.size()
    // (push_back during grow would race the read). An open bracket
    // keeps its begun flags when the membership grows under it.
    unsigned n = memberCount_.load(std::memory_order_acquire);
    if (st.open) {
        if (st.begun.size() < n)
            st.begun.resize(n, 0);
    } else if (st.begun.size() != n) {
        st.begun.assign(n, 0);
    }
    return st;
}

void
ShardedDatabase::joinShard(TxState &st, unsigned idx)
{
    if (!st.open || st.begun[idx])
        return;
    // A wire (nowait) bracket takes a free member WAL shard token or
    // aborts whole — the callers' catch blocks run noteMemberAbort,
    // so the bracket dies cleanly kBusy.
    if (shards_[idx]->openTx(st.isolation, st.snapshot, st.nowait) ==
        nullptr)
        throw TxnAbortError(StatusCode::kBusy,
                            "sharded db: member undo-log shards are "
                            "saturated; bracket aborted");
    st.begun[idx] = 1;
}

void
ShardedDatabase::abortBracket(TxState &st)
{
    // A member rollback also consumes a member the engine already
    // rolled back (the aborted flag), so one loop covers both the
    // explicit-rollback and the engine-abort paths.
    for (unsigned i = 0; i < st.begun.size(); ++i) {
        if (st.begun[i])
            (void)shards_[i]->finishTx(shards_[i]->txContext(), false);
        st.begun[i] = 0;
    }
    closeBracket(st);
}

void
ShardedDatabase::closeBracket(TxState &st)
{
    if (st.snapshot != kNoSnapshot) {
        clock_.endSnapshot(st.snapshot);
        st.snapshot = kNoSnapshot;
    }
    st.open = false;
    activeBrackets_.fetch_sub(1, std::memory_order_acq_rel);
}

void
ShardedDatabase::quiesceBrackets()
{
    bracketBarrier_.store(true, std::memory_order_release);
    while (activeBrackets_.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
}

void
ShardedDatabase::releaseBrackets()
{
    bracketBarrier_.store(false, std::memory_order_release);
}

void
ShardedDatabase::noteMemberAbort(TxState &st, StatusCode code)
{
    // The throwing member already rolled its sub-transaction back
    // (and flagged its context aborted — the rollback in
    // abortBracket consumes that flag); a cross-shard bracket
    // cannot outlive a half-aborted member.
    if (st.open) {
        abortBracket(st);
        st.aborted = true;
        st.abortCode = code;
    }
}

bool
ShardedDatabase::claimCoordSlot(const ChainPtr &c)
{
    SpinGuard g(coordMu_);
    if (~coordSlots_ != 0) {
        unsigned slot = static_cast<unsigned>(std::countr_one(coordSlots_));
        coordSlots_ |= 1ull << slot;
        c->slot = slot;
        return true;
    }
    // Every decision slot is in flight. Only finishes free slots, and
    // they run on the members' drainers — a drainer spinning here
    // could starve the very finish it waits for — so park the chain.
    parkedChains_.push_back(c);
    return false;
}

ShardedDatabase::ChainPtr
ShardedDatabase::releaseCoordSlot(unsigned slot)
{
    SpinGuard g(coordMu_);
    if (!parkedChains_.empty()) {
        ChainPtr next = std::move(parkedChains_.front());
        parkedChains_.pop_front();
        next->slot = slot;
        return next;
    }
    coordSlots_ &= ~(1ull << slot);
    return nullptr;
}

ShardedDatabase::TxState &
ShardedDatabase::beginBracket(const TxnOptions &opts)
{
    TxState &st = txState();
    if (st.open)
        fatal("sharded db: nested transactions are not supported");
    // Bracket-drain fence: membership changes quiesce open brackets
    // at the declare and commit points; park admission while the
    // barrier is up, and back out of a raced admission so a quiesce
    // that observed zero never sees a late bracket slip through.
    for (;;) {
        while (bracketBarrier_.load(std::memory_order_acquire))
            std::this_thread::yield();
        activeBrackets_.fetch_add(1, std::memory_order_acq_rel);
        if (!bracketBarrier_.load(std::memory_order_acquire))
            break;
        activeBrackets_.fetch_sub(1, std::memory_order_acq_rel);
    }
    openBracket(st, opts);
    return st;
}

void
ShardedDatabase::openBracket(TxState &st, const TxnOptions &opts)
{
    st.aborted = false;
    st.abortCode = StatusCode::kOk;
    st.isolation = opts.isolation;
    st.snapshot = opts.isolation == Isolation::kSnapshot
                      ? clock_.beginSnapshot()
                      : kNoSnapshot;
    st.seq = seqCounter_.fetch_add(1, std::memory_order_relaxed);
    st.open = true;
}

Txn
ShardedDatabase::beginTxn(const TxnOptions &opts)
{
    TxState &st = beginBracket(opts);
    return Txn(nullptr, this, st.seq, st.snapshot);
}

Status
ShardedDatabase::commitBracket(TxState &st)
{
    std::vector<unsigned> members;
    for (unsigned i = 0; i < st.begun.size(); ++i)
        if (st.begun[i])
            members.push_back(i);

    if (members.size() <= 1) {
        // Zero or one member: the member's own commit is already
        // atomic and durable; no coordinator round trip.
        Status s = Status::ok();
        for (unsigned i : members) {
            s = shards_[i]->finishTx(shards_[i]->txContext(), true);
            st.begun[i] = 0;
        }
        closeBracket(st);
        return s;
    }

    // Cross-shard: the chain takes the bracket over from the thread's
    // slot (and closes it); the member contexts stay in their thread
    // slots, which this thread does not touch until the chain is done.
    auto c = std::make_shared<CommitChain>();
    c->st = st;
    for (unsigned i : members) {
        c->members.emplace_back();
        c->members.back().idx = i;
        c->members.back().ctx = &shards_[i]->txContext();
        st.begun[i] = 0;
    }
    st.open = false;
    st.snapshot = kNoSnapshot;
    return commitAndWait(std::move(c));
}

ShardedDatabase::ChainPtr
ShardedDatabase::takeDetachedChain(std::uint64_t id)
{
    SpinGuard g(detachedMu_);
    auto it = detached_.find(id);
    if (it == detached_.end() || it->second.bound)
        return nullptr;
    DetachedBracket &b = it->second;
    auto c = std::make_shared<CommitChain>();
    c->st = std::move(b.st);
    for (unsigned i = 0; i < b.memberSessions.size(); ++i) {
        if (b.memberSessions[i] == 0)
            continue;
        std::unique_ptr<Database::TxContext> ctx =
            shards_[i]->takeDetached(b.memberSessions[i]);
        if (i >= c->st.begun.size() || !c->st.begun[i])
            continue; // already finished by an engine abort: dispose
        c->members.emplace_back();
        c->members.back().idx = i;
        c->members.back().ctx = ctx.get();
        c->members.back().owned = std::move(ctx);
    }
    detached_.erase(it);
    return c;
}

void
ShardedDatabase::commitDetachedAsync(std::uint64_t id,
                                     std::function<void(Status)> done)
{
    ChainPtr c = takeDetachedChain(id);
    if (!c) {
        done(Status::make(StatusCode::kMisuse,
                          "sharded db: unknown or bound detached "
                          "transaction"));
        return;
    }
    c->done = [done = std::move(done)](Status s, std::exception_ptr) {
        done(s);
    };
    startCommit(std::move(c));
}

Status
ShardedDatabase::commitDetached(std::uint64_t id)
{
    ChainPtr c = takeDetachedChain(id);
    if (!c)
        return Status::make(StatusCode::kMisuse,
                            "sharded db: unknown or bound detached "
                            "transaction");
    return commitAndWait(std::move(c));
}

Status
ShardedDatabase::commitAndWait(ChainPtr c)
{
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    Status out;
    std::exception_ptr err;
    c->done = [&](Status s, std::exception_ptr e) {
        std::lock_guard<std::mutex> g(mu);
        out = std::move(s);
        err = std::move(e);
        finished = true;
        cv.notify_one();
    };
    startCommit(std::move(c));
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return finished; });
    if (err)
        std::rethrow_exception(err);
    return out;
}

void
ShardedDatabase::startCommit(ChainPtr c)
{
    TxState &st = c->st;
    if (!st.open) {
        // Engine-aborted mid-statement: report why; no member left.
        c->done(finishBracket(st, true), nullptr);
        return;
    }
    for (CommitChain::Member &m : c->members)
        m.ctx->explicitTx = false;
    if (c->members.empty()) {
        // Read-only: nothing to make durable, no fence, no hop.
        closeBracket(st);
        c->done(Status::ok(), nullptr);
        return;
    }
    try {
        if (c->members.size() == 1) {
            CommitChain::Member &m = c->members.front();
            shards_[m.idx]->commitTxAsync(
                *m.ctx, [this, c](Status s, std::exception_ptr err) {
                    closeBracket(c->st);
                    c->done(std::move(s), std::move(err));
                });
            return;
        }
        SpinGuard g(coordMu_);
        c->txnId = coordLog_.reserveIdBlock(1);
    } catch (...) {
        c->noteError(std::current_exception());
        failChain(c);
        return;
    }

    // Phase 1: every member that logged anything prepares in its own
    // next group-commit batch, in parallel with the others.
    unsigned n = 0;
    for (CommitChain::Member &m : c->members) {
        m.prepared = shards_[m.idx]->loggedAny(*m.ctx);
        n += m.prepared ? 1 : 0;
    }
    c->pending.store(n + 1, std::memory_order_relaxed);
    for (CommitChain::Member &m : c->members)
        if (m.prepared)
            shards_[m.idx]->prepareTxAsync(
                *m.ctx, c->txnId, [this, c](std::exception_ptr err) {
                    onPrepared(c, std::move(err));
                });
    onPrepared(c, nullptr);
}

void
ShardedDatabase::onPrepared(const ChainPtr &c, std::exception_ptr err)
{
    if (err)
        c->noteError(std::move(err));
    if (c->pending.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    if (c->failed()) {
        failChain(c);
        return;
    }
    // Brackets whose members all logged nothing have nothing to
    // decide: no slot, no decision record.
    bool any_prepared = false;
    for (const CommitChain::Member &m : c->members)
        any_prepared |= m.prepared;
    if (any_prepared && !claimCoordSlot(c))
        return; // parked: a releasing chain resumes it
    decide(c);
}

void
ShardedDatabase::decide(const ChainPtr &c)
{
    unsigned n = 0;
    try {
        // Phase 2: one fenced decision record — the commit point. A
        // crash before it rolls every prepared member back (presumed
        // abort); after it, recovery rolls them all forward.
        if (c->slot != kNoCoordSlot)
            coordLog_.publish(c->slot, DecisionLog::kKindTxnCommit,
                              c->txnId, 0, nullptr, 0);

        // Visible to snapshots atomically across all members: one
        // timestamp, published into every member's control block
        // inside a single clock critical section. Then the row locks
        // go — the decision can no longer roll back.
        Word ts;
        {
            SpinGuard g(clock_.mu);
            ts = ++clock_.clock;
            for (CommitChain::Member &m : c->members)
                shards_[m.idx]->publishCommitTsLocked(*m.ctx, ts);
        }
        for (CommitChain::Member &m : c->members) {
            shards_[m.idx]->releaseCommittedRows(*m.ctx, ts);
            if (m.prepared)
                ++n;
            else
                shards_[m.idx]->retireEmptyTx(*m.ctx);
        }
    } catch (...) {
        c->noteError(std::current_exception());
        failChain(c);
        return;
    }

    // Phase 3: every prepared member retires in its next batch.
    c->pending.store(n + 1, std::memory_order_relaxed);
    for (CommitChain::Member &m : c->members)
        if (m.prepared)
            shards_[m.idx]->finishTxAsync(
                *m.ctx, [this, c](std::exception_ptr err) {
                    onFinished(c, std::move(err));
                });
    onFinished(c, nullptr);
}

void
ShardedDatabase::onFinished(const ChainPtr &c, std::exception_ptr err)
{
    if (err)
        c->noteError(std::move(err));
    if (c->pending.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    if (c->failed()) {
        failChain(c);
        return;
    }
    ChainPtr next;
    if (c->slot != kNoCoordSlot) {
        // Every finish is durable: the decision has done its job.
        try {
            coordLog_.clear(c->slot);
        } catch (...) {
            c->noteError(std::current_exception());
            failChain(c);
            return;
        }
        next = releaseCoordSlot(c->slot);
        c->slot = kNoCoordSlot;
    }
    for (CommitChain::Member &m : c->members)
        shards_[m.idx]->endTxCommon(*m.ctx);
    closeBracket(c->st);
    c->done(Status::ok(), nullptr);
    if (next)
        decide(next);
}

void
ShardedDatabase::failChain(const ChainPtr &c)
{
    // Only a simulated power failure gets here: crash() recovery owns
    // the members' segments, tokens and locks now. Hand the slot on so
    // a parked chain learns of the failure too instead of waiting.
    ChainPtr next;
    if (c->slot != kNoCoordSlot) {
        next = releaseCoordSlot(c->slot);
        c->slot = kNoCoordSlot;
    }
    std::exception_ptr err;
    {
        SpinGuard g(c->errMu);
        err = c->err;
    }
    closeBracket(c->st);
    c->done(Status::make(StatusCode::kAborted,
                         "sharded db: commit failed: power lost"),
            err);
    if (next)
        decide(next);
}

Status
ShardedDatabase::finishBracket(TxState &st, bool commit)
{
    if (!st.open) {
        if (!st.aborted)
            return Status::make(StatusCode::kMisuse,
                                "sharded db: transaction already "
                                "finished");
        st.aborted = false;
        if (!commit)
            return Status::ok(); // already rolled back, as requested
        StatusCode code = st.abortCode == StatusCode::kOk
                              ? StatusCode::kAborted
                              : st.abortCode;
        return Status::make(code, "sharded db: transaction was rolled "
                                  "back by the engine");
    }
    if (commit)
        return commitBracket(st);
    abortBracket(st);
    return Status::ok();
}

Status
ShardedDatabase::finishHandle(std::uint64_t seq, bool commit)
{
    TxState &st = txState();
    if (st.seq != seq)
        return Status::make(StatusCode::kMisuse,
                            "sharded db: foreign or stale transaction "
                            "handle");
    return finishBracket(st, commit);
}

bool
ShardedDatabase::powerLost()
{
    CrashInjector *inj = coordDev_->injector();
    if (inj != nullptr && inj->tripped())
        return true;
    for (unsigned i = 0; i < shardCount(); ++i)
        if (shards_[i]->powerLost())
            return true;
    return false;
}

Status
ShardedDatabase::beginDetached(const TxnOptions &opts,
                               std::uint64_t *id_out)
{
    *id_out = 0;
    // The nowait flavor of beginBracket's barrier dance: a draining
    // membership change turns new wire brackets away instead of
    // parking an event-loop worker on the fence.
    if (bracketBarrier_.load(std::memory_order_acquire))
        return Status::make(StatusCode::kBusy,
                            "sharded db: membership change draining "
                            "brackets; retry");
    activeBrackets_.fetch_add(1, std::memory_order_acq_rel);
    if (bracketBarrier_.load(std::memory_order_acquire)) {
        activeBrackets_.fetch_sub(1, std::memory_order_acq_rel);
        return Status::make(StatusCode::kBusy,
                            "sharded db: membership change draining "
                            "brackets; retry");
    }

    DetachedBracket b;
    unsigned n = memberCount_.load(std::memory_order_acquire);
    b.st.gen = generation_.load(std::memory_order_acquire);
    b.st.begun.assign(n, 0);
    b.st.nowait = true;
    openBracket(b.st, opts);
    b.memberSessions.assign(n, 0);

    std::uint64_t id = b.st.seq;
    SpinGuard g(detachedMu_);
    detached_.emplace(id, std::move(b));
    *id_out = id;
    return Status::ok();
}

bool
ShardedDatabase::bindDetached(std::uint64_t id)
{
    SpinGuard g(detachedMu_);
    auto it = detached_.find(id);
    if (it == detached_.end() || it->second.bound)
        return false;
    TxState &slot = txState();
    if (slot.open)
        return false; // binder has its own open bracket
    DetachedBracket &b = it->second;
    std::uint64_t gen = slot.gen;
    slot = b.st;
    slot.gen = gen;
    for (unsigned i = 0; i < b.memberSessions.size(); ++i) {
        if (b.memberSessions[i] == 0)
            continue;
        if (!shards_[i]->bindDetached(b.memberSessions[i]))
            fatal("sharded db: member session bind failed");
    }
    b.bound = true;
    return true;
}

void
ShardedDatabase::unbindDetached(std::uint64_t id)
{
    SpinGuard g(detachedMu_);
    auto it = detached_.find(id);
    if (it == detached_.end() || !it->second.bound)
        fatal("sharded db: unbind of an unbound bracket");
    DetachedBracket &b = it->second;
    TxState &slot = txState();
    if (b.memberSessions.size() < slot.begun.size())
        b.memberSessions.resize(slot.begun.size(), 0);
    for (unsigned i = 0; i < slot.begun.size(); ++i) {
        bool session = b.memberSessions[i] != 0;
        if (slot.begun[i] && session) {
            shards_[i]->unbindDetached(b.memberSessions[i]);
        } else if (slot.begun[i] && !session) {
            // Joined while bound: park the member transaction the
            // join opened on this thread.
            b.memberSessions[i] = shards_[i]->detachCurrentTx();
        } else if (!slot.begun[i] && session) {
            // The engine aborted the bracket mid-statement while
            // bound: the member already rolled back on this thread.
            // Park the finished context and dispose of the session.
            shards_[i]->unbindDetached(b.memberSessions[i]);
            (void)shards_[i]->rollbackDetached(b.memberSessions[i]);
            b.memberSessions[i] = 0;
        }
    }
    b.st = slot;
    TxState fresh;
    fresh.gen = slot.gen;
    fresh.begun.assign(slot.begun.size(), 0);
    slot = std::move(fresh);
    b.bound = false;
}

Status
ShardedDatabase::rollbackDetached(std::uint64_t id)
{
    if (!bindDetached(id))
        return Status::make(StatusCode::kMisuse,
                            "sharded db: unknown or bound detached "
                            "transaction");
    Status s = finishBracket(txState(), false);

    SpinGuard g(detachedMu_);
    auto it = detached_.find(id);
    DetachedBracket &b = it->second;
    for (unsigned i = 0; i < b.memberSessions.size(); ++i) {
        if (b.memberSessions[i] == 0)
            continue;
        // The member transaction is finished (abortBracket closed
        // every begun member); park the spent context and dispose of
        // the session entry.
        shards_[i]->unbindDetached(b.memberSessions[i]);
        (void)shards_[i]->rollbackDetached(b.memberSessions[i]);
    }
    TxState &slot = txState();
    TxState fresh;
    fresh.gen = slot.gen;
    fresh.begun.assign(slot.begun.size(), 0);
    slot = std::move(fresh);
    detached_.erase(it);
    return s;
}

std::size_t
ShardedDatabase::detachedCount() const
{
    SpinGuard g(detachedMu_);
    return detached_.size();
}

unsigned
ShardedDatabase::busyWalShards() const
{
    unsigned n = 0;
    for (unsigned i = 0;
         i < memberCount_.load(std::memory_order_acquire); ++i)
        n += shards_[i]->busyWalShards();
    return n;
}

void
ShardedDatabase::createTable(const TableSchema &schema)
{
    unsigned n = shardCount();
    for (unsigned i = 0; i < n; ++i)
        shards_[i]->createTable(schema);
}

std::int64_t
ShardedDatabase::pkOf(const std::string &table, const DbRecord &record)
{
    const TableSchema *schema = shards_[0]->catalog().find(table);
    if (!schema)
        fatal("sharded db: no such table " + table);
    if (record.values.size() != schema->columns.size())
        fatal("sharded db: record shape mismatch for " + table);
    return record.values[schema->pkColumn].i;
}

void
ShardedDatabase::persistRecord(const std::string &table,
                               const DbRecord &record)
{
    std::int64_t pk = pkOf(table, record);
    const DbRouting &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    TxState &st = txState();
    try {
        if (rt.migrating) {
            unsigned oidx = rt.committed.shardForKey(
                static_cast<std::uint64_t>(pk));
            if (oidx != nidx) {
                // Mid-migration a remapped row lives at exactly one
                // of its two homes (movers delete-source and insert-
                // dest in one 2PC bracket): update it wherever it
                // is. A miss at both probes means a fresh insert —
                // or a row that moved between the probes, which the
                // final new-home upsert catches via its own
                // update-else-insert.
                joinShard(st, nidx);
                joinShard(st, oidx);
                if (shards_[nidx]->updateRecord(table, record))
                    return;
                if (shards_[oidx]->updateRecord(table, record))
                    return;
                shards_[nidx]->persistRecord(table, record);
                return;
            }
        }
        joinShard(st, nidx);
        shards_[nidx]->persistRecord(table, record);
    } catch (const WalFullError &) {
        noteMemberAbort(st, StatusCode::kWalFull);
        throw;
    } catch (const TxnAbortError &e) {
        noteMemberAbort(st, e.code());
        throw;
    }
}

bool
ShardedDatabase::updateRecord(const std::string &table,
                              const DbRecord &record)
{
    std::int64_t pk = pkOf(table, record);
    const DbRouting &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    TxState &st = txState();
    try {
        if (rt.migrating) {
            unsigned oidx = rt.committed.shardForKey(
                static_cast<std::uint64_t>(pk));
            if (oidx != nidx) {
                // Same two-home probe as persistRecord, minus the
                // final insert: update-only never resurrects a row.
                joinShard(st, nidx);
                joinShard(st, oidx);
                if (shards_[nidx]->updateRecord(table, record))
                    return true;
                if (shards_[oidx]->updateRecord(table, record))
                    return true;
                return shards_[nidx]->updateRecord(table, record);
            }
        }
        joinShard(st, nidx);
        return shards_[nidx]->updateRecord(table, record);
    } catch (const WalFullError &) {
        noteMemberAbort(st, StatusCode::kWalFull);
        throw;
    } catch (const TxnAbortError &e) {
        noteMemberAbort(st, e.code());
        throw;
    }
}

bool
ShardedDatabase::fetchRecord(const std::string &table, std::int64_t pk,
                             DbRecord *out)
{
    TxState &st = txState();
    Word snap = (st.open && st.snapshot != kNoSnapshot) ? st.snapshot
                                                        : kNoSnapshot;
    const DbRouting &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    auto fetch_at = [&](unsigned i) {
        return snap != kNoSnapshot
                   ? shards_[i]->fetchRecordAt(table, pk, out, snap)
                   : shards_[i]->fetchRecord(table, pk, out);
    };
    if (!rt.migrating)
        return fetch_at(nidx);
    unsigned oidx =
        rt.committed.shardForKey(static_cast<std::uint64_t>(pk));
    if (oidx == nidx)
        return fetch_at(nidx);
    if (fetch_at(nidx))
        return true;
    if (fetch_at(oidx))
        return true;
    // The row may have streamed old-home → new-home between the two
    // probes; moves are one-way, so a second new-home probe is
    // definitive.
    return fetch_at(nidx);
}

bool
ShardedDatabase::deleteRecord(const std::string &table, std::int64_t pk)
{
    const DbRouting &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    TxState &st = txState();
    try {
        if (rt.migrating) {
            unsigned oidx = rt.committed.shardForKey(
                static_cast<std::uint64_t>(pk));
            if (oidx != nidx) {
                // Same two-probe-plus-definitive-retry shape as
                // fetchRecord, but locking: the delete serializes
                // with a concurrent mover on the row lock.
                joinShard(st, nidx);
                joinShard(st, oidx);
                if (shards_[nidx]->deleteRecord(table, pk))
                    return true;
                if (shards_[oidx]->deleteRecord(table, pk))
                    return true;
                return shards_[nidx]->deleteRecord(table, pk);
            }
        }
        joinShard(st, nidx);
        return shards_[nidx]->deleteRecord(table, pk);
    } catch (const WalFullError &) {
        noteMemberAbort(st, StatusCode::kWalFull);
        throw;
    } catch (const TxnAbortError &e) {
        noteMemberAbort(st, e.code());
        throw;
    }
}

void
ShardedDatabase::scanEq(
    const std::string &table, const std::string &column,
    const DbValue &v,
    const std::function<void(const std::vector<DbValue> &)> &fn)
{
    TxState &st = txState();
    unsigned n = shardCount();
    if (st.open && st.snapshot != kNoSnapshot) {
        for (unsigned i = 0; i < n; ++i)
            shards_[i]->scanEqAt(table, column, v, fn, st.snapshot);
        return;
    }
    for (unsigned i = 0; i < n; ++i)
        shards_[i]->scanEq(table, column, v, fn);
}

std::size_t
ShardedDatabase::rowCount(const std::string &table)
{
    std::size_t rows = 0;
    unsigned n = shardCount();
    for (unsigned i = 0; i < n; ++i)
        rows += shards_[i]->rowCount(table);
    return rows;
}

void
ShardedDatabase::addMemberLocked()
{
    auto db =
        std::make_unique<Database>(cfg_.shard, nvmCfg_, &clock_);
    // Joiners replay the catalog before they are listed: every
    // member carries every table's schema.
    for (const TableSchema &t : shards_[0]->catalog().tables())
        db->createTable(t);
    shards_.push_back(std::move(db));
}

void
ShardedDatabase::moveRow(const std::string &table, unsigned src,
                         unsigned dst, std::int64_t pk)
{
    for (unsigned attempt = 0;; ++attempt) {
        TxState &st = beginBracket(TxnOptions{});
        try {
            joinShard(st, src);
            DbRecord rec;
            if (!shards_[src]->fetchForUpdate(table, pk, &rec)) {
                // Deleted, or already moved (idempotent resume).
                abortBracket(st);
                return;
            }
            joinShard(st, dst);
            shards_[dst]->persistRecord(table, rec);
            if (!shards_[src]->deleteRecord(table, pk))
                fatal("sharded db: repartition lost a locked row");
            (void)commitBracket(st);
            return;
        } catch (const WalFullError &) {
            noteMemberAbort(st, StatusCode::kWalFull);
        } catch (const TxnAbortError &) {
            // Deadlock victim against a user bracket; back off and
            // retry (noteMemberAbort already ran via persist/delete,
            // or the bracket is still open after fetchForUpdate).
            if (st.open)
                abortBracket(st);
        }
        st.aborted = false; // the mover retries instead of reporting
        if (attempt > 10000)
            fatal("sharded db: repartition starved moving a row");
        std::this_thread::yield();
    }
}

void
ShardedDatabase::repartition(unsigned from, unsigned target)
{
    ShardRouter new_ring(target, vnodes_);
    // Grow remaps a slice of every old member; shrink drains the
    // removed members entirely (the new ring never maps to them).
    unsigned src_begin = target > from ? 0 : target;
    std::vector<std::string> tables;
    for (const TableSchema &t : shards_[0]->catalog().tables())
        tables.push_back(t.name);
    for (unsigned s = src_begin; s < from; ++s) {
        for (const std::string &table : tables) {
            std::vector<std::int64_t> movers;
            shards_[s]->forEachPk(table, [&](std::int64_t pk) {
                if (new_ring.shardForKey(
                        static_cast<std::uint64_t>(pk)) != s)
                    movers.push_back(pk);
            });
            for (std::int64_t pk : movers)
                moveRow(table, s,
                        new_ring.shardForKey(
                            static_cast<std::uint64_t>(pk)),
                        pk);
        }
    }
}

void
ShardedDatabase::runMembershipChangeLocked(unsigned from,
                                           unsigned target)
{
    // Declare: make sure every engine exists (idempotent across a
    // resume), list the union of old and new memberships so scans
    // cover joiners and leavers, and publish the epoch pair behind
    // a bracket drain.
    unsigned bound = from > target ? from : target;
    while (shards_.size() < bound)
        addMemberLocked();
    quiesceBrackets();
    memberCount_.store(bound, std::memory_order_release);
    publishRouting(ShardRouter(from, vnodes_),
                   ShardRouter(target, vnodes_), true);
    releaseBrackets();

    // Migrate: stream every remapped row to its new-ring home while
    // traffic keeps probing both epochs.
    repartition(from, target);

    // Commit: drain brackets begun against the pair, then retire
    // the old epoch.
    quiesceBrackets();
    publishRouting(ShardRouter(target, vnodes_),
                   ShardRouter(target, vnodes_), false);
    memberCount_.store(target, std::memory_order_release);
    migrPending_ = false;
    releaseBrackets();
}

void
ShardedDatabase::grow(unsigned added)
{
    if (added == 0)
        return;
    SpinGuard g(membershipMu_);
    if (migrPending_)
        fatal("sharded db: membership change already in flight "
              "(resumeMembershipChange after a crash)");
    if (txState().open)
        fatal("sharded db: grow inside a transaction bracket");
    unsigned from = memberCount_.load(std::memory_order_acquire);
    unsigned target = from + added;
    if (target > RingManifestData::kMaxShards)
        fatal("sharded db: grow past the member cap");
    migrFrom_ = from;
    migrTarget_ = target;
    migrPending_ = true;
    runMembershipChangeLocked(from, target);
}

void
ShardedDatabase::shrink(unsigned removed)
{
    if (removed == 0)
        return;
    SpinGuard g(membershipMu_);
    if (migrPending_)
        fatal("sharded db: membership change already in flight "
              "(resumeMembershipChange after a crash)");
    if (txState().open)
        fatal("sharded db: shrink inside a transaction bracket");
    unsigned from = memberCount_.load(std::memory_order_acquire);
    if (removed >= from)
        fatal("sharded db: cannot shrink to zero members");
    unsigned target = from - removed;
    migrFrom_ = from;
    migrTarget_ = target;
    migrPending_ = true;
    runMembershipChangeLocked(from, target);
}

void
ShardedDatabase::resumeMembershipChange()
{
    SpinGuard g(membershipMu_);
    if (!migrPending_)
        return;
    runMembershipChangeLocked(migrFrom_, migrTarget_);
}

void
ShardedDatabase::crashShard(unsigned i, CrashMode mode,
                            std::uint64_t seed)
{
    if (i >= shards_.size())
        fatal("sharded db: no such shard");
    generation_.fetch_add(1, std::memory_order_release);
    // Quiesced-caller contract: no bracket is mid-2PC, so the member
    // holds no prepared state and presumed abort is exact.
    shards_[i]->crash(mode, seed);
}

void
ShardedDatabase::crash(CrashMode mode, std::uint64_t seed)
{
    generation_.fetch_add(1, std::memory_order_release);

    // Counted brackets and a raised barrier belong to dead threads
    // (quiesced-caller contract) — including a membership change
    // killed mid-repartition, which resumeMembershipChange() rolls
    // forward after recovery. Parked wire brackets died with the
    // power too; their member sessions are swept by each member's
    // own crash below.
    {
        SpinGuard g(detachedMu_);
        detached_.clear();
    }
    bracketBarrier_.store(false, std::memory_order_release);
    activeBrackets_.store(0, std::memory_order_release);

    // Coordinator first: the surviving decision records define which
    // in-doubt (prepared) member transactions committed.
    coordDev_->crash(mode, seed + 0x2b1);
    std::vector<DecisionLog::Record> records = coordLog_.recover();
    std::unordered_set<Word> committed;
    for (const DecisionLog::Record &r : records)
        if (r.kind == DecisionLog::kKindTxnCommit)
            committed.insert(r.txnId);
    WalShard::ResolveFn resolver = [&committed](Word txn_id) {
        return committed.count(txn_id) != 0;
    };

    for (std::size_t i = 0; i < shards_.size(); ++i)
        shards_[i]->crash(mode, seed + i, resolver);

    // Every in-doubt transaction is resolved; retire the decisions.
    for (const DecisionLog::Record &r : records)
        coordLog_.clear(r.slot);
    SpinGuard g(coordMu_);
    coordSlots_ = 0;
    parkedChains_.clear();
}

} // namespace db
} // namespace espresso
