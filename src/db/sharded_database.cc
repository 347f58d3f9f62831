#include "db/sharded_database.hh"

#include <bit>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "db/wal.hh"
#include "nvm/crash_injector.hh"
#include "util/logging.hh"

namespace espresso {
namespace db {

namespace {

Status
unknownBracket()
{
    return Status::make(StatusCode::kMisuse,
                        "sharded db: unknown bracket, or bound to "
                        "another thread");
}

} // namespace

/** One bracket's finish in flight: the bracket, its taken member
 * sessions, and the 2PC bookkeeping shared by the continuations that
 * run on the members' drainers. */
struct ShardedDatabase::CommitChain
{
    struct Member
    {
        unsigned idx = 0;
        std::unique_ptr<Database::TxContext> ctx;
        bool prepared = false; ///< logged anything: prepare + finish
    };

    Bracket br;
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
    : cfg_(cfg), nvmCfg_(nvm_cfg)
{
    auto [shards, vnodes] = resolveShardLayout(cfg.shards, cfg.vnodes);
    vnodes_ = vnodes;
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
    routing_.publish(ShardRouter(shards, vnodes_),
                     ShardRouter(shards, vnodes_), false);
}

ShardedDatabase::~ShardedDatabase() = default;

void
ShardedDatabase::joinShard(Bracket *b, unsigned idx)
{
    if (b == nullptr || !b->open)
        return;
    // An open bracket keeps its members when the membership grows
    // under it.
    if (b->members.size() <= idx)
        b->members.resize(idx + 1, 0);
    if (b->members[idx] != 0)
        return;
    // A nowait bracket takes a free member WAL shard token or aborts
    // whole — the callers' catch blocks run noteMemberAbort, so the
    // bracket dies cleanly kBusy.
    Database::TxContext *s = shards_[idx]->openSession(
        b->isolation, b->snapshot, b->nowait, /*bind=*/true);
    if (s == nullptr)
        throw TxnAbortError(StatusCode::kBusy,
                            "sharded db: member undo-log shards are "
                            "saturated; bracket aborted");
    b->members[idx] = s->txnSeq;
}

void
ShardedDatabase::noteMemberAbort(Bracket *b, StatusCode code)
{
    // The throwing member already rolled its transaction back (its
    // session reports so to the rollback below, which disposes of
    // it); a cross-shard bracket cannot outlive a half-aborted
    // member.
    if (b == nullptr || !b->open)
        return;
    for (unsigned i = 0; i < b->members.size(); ++i)
        if (b->members[i] != 0)
            (void)shards_[i]->rollbackDetached(b->members[i]);
    b->members.assign(b->members.size(), 0);
    b->abortCode = code;
    closeBracket(*b);
}

bool
ShardedDatabase::parkKilled(ThreadSlot &slot)
{
    if (slot.bound != nullptr && !slot.bound->open) {
        slot.bound->bound = false;
        slot.bound = nullptr;
    }
    return slot.bound == nullptr;
}

void
ShardedDatabase::closeBracket(Bracket &b)
{
    if (b.snapshot != kNoSnapshot) {
        clock_.endSnapshot(b.snapshot);
        b.snapshot = kNoSnapshot;
    }
    b.open = false;
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

std::uint64_t
ShardedDatabase::openBracket(const TxnOptions &opts, bool nowait,
                             ThreadSlot *bind_to)
{
    // Bracket-drain fence: membership changes quiesce open brackets
    // at the declare and commit points. Admission parks while the
    // barrier is up — or, nowait, turns away instead of parking an
    // event-loop worker on the fence — and backs out of a raced
    // admission so a quiesce that observed zero never sees a late
    // bracket slip through.
    for (;;) {
        while (bracketBarrier_.load(std::memory_order_acquire)) {
            if (nowait)
                return 0;
            std::this_thread::yield();
        }
        activeBrackets_.fetch_add(1, std::memory_order_acq_rel);
        if (!bracketBarrier_.load(std::memory_order_acquire))
            break;
        activeBrackets_.fetch_sub(1, std::memory_order_acq_rel);
    }
    Bracket b;
    b.isolation = opts.isolation;
    b.snapshot = opts.isolation == Isolation::kSnapshot
                     ? clock_.beginSnapshot()
                     : kNoSnapshot;
    b.nowait = nowait;
    b.bound = bind_to != nullptr;
    b.members.assign(memberCount_.load(std::memory_order_acquire), 0);
    std::uint64_t id = seqCounter_.fetch_add(1, std::memory_order_relaxed);
    SpinGuard g(bracketsMu_);
    Bracket &placed = brackets_.emplace(id, std::move(b)).first->second;
    if (bind_to != nullptr)
        bind_to->bound = &placed;
    return id;
}

Txn
ShardedDatabase::beginTxn(const TxnOptions &opts)
{
    ThreadSlot &slot = slots_.get();
    {
        SpinGuard g(bracketsMu_);
        if (!parkKilled(slot))
            fatal("sharded db: nested transactions are not supported");
    }
    std::uint64_t id = openBracket(opts, /*nowait=*/false, &slot);
    return Txn(nullptr, this, id, slot.bound->snapshot);
}

ShardedDatabase::ChainPtr
ShardedDatabase::takeChain(std::uint64_t id)
{
    ThreadSlot &slot = slots_.get();
    auto c = std::make_shared<CommitChain>();
    {
        SpinGuard g(bracketsMu_);
        auto it = brackets_.find(id);
        if (it == brackets_.end() ||
            (it->second.bound && slot.bound != &it->second))
            return nullptr;
        if (it->second.bound)
            slot.bound = nullptr;
        c->br = std::move(it->second);
        brackets_.erase(it);
    }
    // Member sessions are bound wherever the bracket was: taking them
    // unbinds them too.
    for (unsigned i = 0; i < c->br.members.size(); ++i) {
        if (c->br.members[i] == 0)
            continue;
        c->members.emplace_back();
        c->members.back().idx = i;
        c->members.back().ctx = shards_[i]->takeSession(c->br.members[i]);
        if (!c->members.back().ctx)
            fatal("sharded db: a member session was lost under an open "
                  "bracket");
    }
    return c;
}

void
ShardedDatabase::commitDetachedAsync(std::uint64_t id,
                                     std::function<void(Status)> done)
{
    ChainPtr c = takeChain(id);
    if (!c) {
        done(unknownBracket());
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
    ChainPtr c = takeChain(id);
    if (!c)
        return unknownBracket();
    if (c->members.size() != 1)
        return commitAndWait(std::move(c)); // 0 members: inline
    // One member: its own commit is already atomic and durable; it
    // runs here, with no coordinator or drainer hop.
    Status s = shards_[c->members[0].idx]->finishTx(*c->members[0].ctx,
                                                     true);
    closeBracket(c->br);
    return s;
}

Status
ShardedDatabase::rollbackDetached(std::uint64_t id)
{
    ChainPtr c = takeChain(id);
    if (!c)
        return unknownBracket();
    for (CommitChain::Member &m : c->members)
        (void)shards_[m.idx]->finishTx(*m.ctx, false);
    if (c->br.open)
        closeBracket(c->br);
    return Status::ok();
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
    if (!c->br.open) {
        // Engine-aborted mid-statement: report why; no member left.
        c->done(Status::make(c->br.abortCode, "sharded db: transaction "
                                              "was rolled back by the "
                                              "engine"),
                nullptr);
        return;
    }
    if (c->members.empty()) {
        // Read-only: nothing to make durable, no fence, no hop.
        closeBracket(c->br);
        c->done(Status::ok(), nullptr);
        return;
    }
    try {
        if (c->members.size() == 1) {
            CommitChain::Member &m = c->members.front();
            shards_[m.idx]->commitTxAsync(
                *m.ctx, [this, c](Status s, std::exception_ptr err) {
                    closeBracket(c->br);
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
    closeBracket(c->br);
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
    closeBracket(c->br);
    c->done(Status::make(StatusCode::kAborted,
                         "sharded db: commit failed: power lost"),
            err);
    if (next)
        decide(next);
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
    *id_out = openBracket(opts, /*nowait=*/true, nullptr);
    if (*id_out == 0)
        return Status::make(StatusCode::kBusy,
                            "sharded db: membership change draining "
                            "brackets; retry");
    return Status::ok();
}

bool
ShardedDatabase::bindDetached(std::uint64_t id)
{
    ThreadSlot &slot = slots_.get();
    SpinGuard g(bracketsMu_);
    auto it = brackets_.find(id);
    if (it == brackets_.end() || it->second.bound || !parkKilled(slot))
        return false;
    Bracket &b = it->second;
    for (unsigned i = 0; i < b.members.size(); ++i)
        if (b.members[i] != 0 && !shards_[i]->bindDetached(b.members[i]))
            fatal("sharded db: member session bind failed");
    b.bound = true;
    slot.bound = &b;
    return true;
}

void
ShardedDatabase::unbindDetached(std::uint64_t id)
{
    ThreadSlot &slot = slots_.get();
    SpinGuard g(bracketsMu_);
    auto it = brackets_.find(id);
    if (it == brackets_.end() || slot.bound != &it->second)
        fatal("sharded db: unbind of a bracket not bound to this "
              "thread");
    Bracket &b = it->second;
    for (unsigned i = 0; i < b.members.size(); ++i)
        if (b.members[i] != 0)
            shards_[i]->unbindDetached(b.members[i]);
    b.bound = false;
    slot.bound = nullptr;
}

std::size_t
ShardedDatabase::detachedCount() const
{
    SpinGuard g(bracketsMu_);
    return brackets_.size();
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
    const TableSchema *schema = catalog().find(table);
    if (!schema)
        fatal("sharded db: no such table " + table);
    if (record.values.size() != schema->columns.size() ||
        record.values[schema->pkColumn].type != DbType::kI64)
        fatal("sharded db: record shape mismatch for " + table);
    return record.values[schema->pkColumn].i;
}

template <typename Probe, typename Last>
bool
ShardedDatabase::routed(std::int64_t pk, bool write, Probe &&probe,
                        Last &&last)
{
    const RoutingEpoch &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    Bracket *b = write ? boundBracket() : nullptr;
    try {
        if (rt.migrating) {
            unsigned oidx = rt.committed.shardForKey(
                static_cast<std::uint64_t>(pk));
            if (oidx != nidx) {
                // Mid-migration a remapped row lives at exactly one
                // of its two homes (movers delete-source and insert-
                // dest in one 2PC bracket): probe both — a write
                // locking, so it serializes with a concurrent mover
                // on the row lock. A miss at both means the row is
                // absent — or moved between the probes, which the
                // final new-home call catches (moves are one-way).
                joinShard(b, nidx);
                joinShard(b, oidx);
                if (probe(*shards_[nidx]) || probe(*shards_[oidx]))
                    return true;
                return last(*shards_[nidx]);
            }
        }
        joinShard(b, nidx);
        return last(*shards_[nidx]);
    } catch (const WalFullError &) {
        noteMemberAbort(b, StatusCode::kWalFull);
        throw;
    } catch (const TxnAbortError &e) {
        noteMemberAbort(b, e.code());
        throw;
    }
}

void
ShardedDatabase::persistRecord(const std::string &table,
                               const DbRecord &record)
{
    // Update wherever the row lives; the final new-home write is an
    // upsert (a fresh insert when both probes missed).
    auto update = [&](Database &m) {
        return m.updateRecord(table, record);
    };
    routed(pkOf(table, record), /*write=*/true, update, [&](Database &m) {
        m.persistRecord(table, record);
        return true;
    });
}

bool
ShardedDatabase::updateRecord(const std::string &table,
                              const DbRecord &record)
{
    // Update-only never resurrects a row.
    auto update = [&](Database &m) {
        return m.updateRecord(table, record);
    };
    return routed(pkOf(table, record), /*write=*/true, update, update);
}

bool
ShardedDatabase::fetchRecord(const std::string &table, std::int64_t pk,
                             DbRecord *out)
{
    Word snap = bracketSnapshot();
    auto fetch = [&](Database &m) {
        return snap != kNoSnapshot ? m.fetchRecordAt(table, pk, out, snap)
                                   : m.fetchRecord(table, pk, out);
    };
    return routed(pk, /*write=*/false, fetch, fetch);
}

bool
ShardedDatabase::deleteRecord(const std::string &table, std::int64_t pk)
{
    auto erase = [&](Database &m) { return m.deleteRecord(table, pk); };
    return routed(pk, /*write=*/true, erase, erase);
}

void
ShardedDatabase::scanEq(
    const std::string &table, const std::string &column,
    const DbValue &v,
    const std::function<void(const std::vector<DbValue> &)> &fn)
{
    Word snap = bracketSnapshot();
    unsigned n = shardCount();
    for (unsigned i = 0; i < n; ++i) {
        if (snap != kNoSnapshot)
            shards_[i]->scanEqAt(table, column, v, fn, snap);
        else
            shards_[i]->scanEq(table, column, v, fn);
    }
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
    for (const TableSchema &t : catalog().tables())
        db->createTable(t);
    shards_.push_back(std::move(db));
}

void
ShardedDatabase::moveRow(const std::string &table, unsigned src,
                         unsigned dst, std::int64_t pk)
{
    for (unsigned attempt = 0;; ++attempt) {
        try {
            Txn t = beginTxn();
            Bracket *b = boundBracket();
            joinShard(b, src);
            DbRecord rec;
            if (!shards_[src]->fetchForUpdate(table, pk, &rec))
                return; // deleted, or already moved (idempotent resume)
            joinShard(b, dst);
            shards_[dst]->persistRecord(table, rec);
            if (!shards_[src]->deleteRecord(table, pk))
                fatal("sharded db: repartition lost a locked row");
            (void)t.commit();
            return;
        } catch (const WalFullError &) {
        } catch (const TxnAbortError &) {
            // Deadlock victim against a user bracket: the unwinding
            // handle rolled the move back; back off and retry.
        }
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
    for (const TableSchema &t : catalog().tables())
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
    routing_.publish(ShardRouter(from, vnodes_),
                     ShardRouter(target, vnodes_), true);
    releaseBrackets();

    // Migrate: stream every remapped row to its new-ring home while
    // traffic keeps probing both epochs.
    repartition(from, target);

    // Commit: drain brackets begun against the pair, then retire
    // the old epoch.
    quiesceBrackets();
    routing_.publish(ShardRouter(target, vnodes_),
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
    if (boundBracket() != nullptr)
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
    if (boundBracket() != nullptr)
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
    slots_.clear();
    // Quiesced-caller contract: no bracket is mid-2PC, so the member
    // holds no prepared state and presumed abort is exact.
    shards_[i]->crash(mode, seed);
}

void
ShardedDatabase::crash(CrashMode mode, std::uint64_t seed)
{
    // Counted brackets and a raised barrier belong to dead threads
    // (quiesced-caller contract) — including a membership change
    // killed mid-repartition, which resumeMembershipChange() rolls
    // forward after recovery. Every bracket died with the power too;
    // its member sessions are swept by each member's own crash below.
    slots_.clear();
    {
        SpinGuard g(bracketsMu_);
        brackets_.clear();
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
