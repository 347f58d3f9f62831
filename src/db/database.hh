/**
 * @file
 * The embedded database (mini-H2) running on emulated NVM.
 *
 * Two ingress paths over one storage/transaction core, mirroring the
 * paper's Fig. 1 vs Fig. 13:
 *
 *  - executeSql(): the JDBC path. Statements arrive as text, are
 *    tokenized/parsed/typed (the transformation cost the ORM's JPA
 *    provider pays on top of its own SQL formatting), then executed.
 *  - persistRecord()/fetchRecord()/deleteRecord(): the DBPersistable
 *    path. Typed records arrive directly, with a per-column dirty
 *    mask enabling field-level updates (§5).
 *
 * Both paths share the WAL, the row store, and the catalog; a
 * transaction opened with beginTxn() groups statements, otherwise
 * each call is auto-committed.
 *
 * Transactions: every explicit transaction is one engine-owned
 * session holding one WAL shard token and its row write-set, so N
 * sessions run concurrently. A session is parked (reachable only by
 * its id) or bound to exactly one thread, whose statements then run
 * inside it; a thread's slot holds just its idle auto-commit context
 * and a pointer to the one session bound to it.
 *
 *  - beginTxn(TxnOptions) opens a session bound to the calling thread
 *    and returns its RAII Txn handle; Txn::commit()/rollback() unbind
 *    and finish it through commitDetached()/rollbackDetached() and
 *    report every failure mode as a db::Status. The begin blocks for
 *    a WAL shard token and its row-lock waits are unbounded.
 *  - beginDetached() opens a parked session for servers whose
 *    connections hop between worker threads: bindDetached()/
 *    unbindDetached() bind it around each statement batch, and
 *    commitDetached()/rollbackDetached() finish it from any thread.
 *    It never blocks: the begin takes a free WAL shard token or fails
 *    with StatusCode::kBusy (admission control), and its row-lock
 *    waits are bounded (kBusy abort), so an event-loop worker never
 *    parks behind a stalled session.
 *
 * Commits drain through the group-commit coordinator (batch window:
 * DatabaseConfig::groupCommitWindowUs, or the ESPRESSO_DB_GROUP_COMMIT
 * env var in microseconds; 0 = eager). Write-write conflicts across
 * rows need no caller-side lock order: a wait that closes a cycle
 * aborts its youngest transaction with StatusCode::kDeadlock.
 * Isolation::kSnapshot gives latch-free consistent reads at the
 * transaction's begin timestamp, with first-committer-wins write
 * conflicts (StatusCode::kConflict) — see db/txn.hh. Caller
 * contracts: DDL (createTable / CREATE TABLE) and crash() must not
 * run concurrently with other statements.
 */

#ifndef ESPRESSO_DB_DATABASE_HH
#define ESPRESSO_DB_DATABASE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/catalog.hh"
#include "db/commit_coordinator.hh"
#include "db/row_store.hh"
#include "db/sql_parser.hh"
#include "db/status.hh"
#include "db/thread_slots.hh"
#include "db/txn.hh"
#include "db/wal.hh"
#include "nvm/nvm_device.hh"
#include "util/phase_timer.hh"
#include "util/spin.hh"

namespace espresso {
namespace db {

/** Sizing for a Database device. */
struct DatabaseConfig
{
    std::size_t rowRegionSize = 32u << 20;
    std::size_t walSize = 4u << 20;
    std::size_t rowsPerTable = 8192;

    /** Undo-WAL shards: up to this many transactions log without
     * blocking each other (extra threads queue on a shard). */
    unsigned walShards = 8;

    /** Resolve groupCommitWindowUs from ESPRESSO_DB_GROUP_COMMIT. */
    static constexpr std::uint64_t kWindowFromEnv = ~0ull;

    /** Auto-tune the window from the observed commit arrival rate
     * (ESPRESSO_DB_GROUP_COMMIT=auto): an uncontended committer gets
     * the eager path, concurrent committers get a window sized to
     * one batch of arrivals. See CommitCoordinator. */
    static constexpr std::uint64_t kWindowAuto = ~0ull - 1;

    /** Group-commit batch window in microseconds; 0 commits eagerly
     * (the seed behavior); kWindowAuto auto-tunes. Defaults to the
     * env knob, else 0. */
    std::uint64_t groupCommitWindowUs = kWindowFromEnv;
};

/** Query result. */
struct ResultSet
{
    std::vector<std::string> columns;
    std::vector<std::vector<DbValue>> rows;

    /** Rows affected, for DML statements. */
    std::size_t affected = 0;
};

/** A typed record for the direct (DBPersistable) path. */
struct DbRecord
{
    std::vector<DbValue> values;
    std::uint64_t dirtyMask = ~0ull;
};

/** One embedded database instance. */
class Database
{
  public:
    /** @param shared_clock commit clock shared with other members of
     * a sharded runtime (null: this instance owns its own). */
    explicit Database(const DatabaseConfig &cfg = {},
                      NvmConfig nvm_cfg = {},
                      SnapshotClock *shared_clock = nullptr);
    ~Database();

    Database(const Database &) = delete;
    Database &operator=(const Database &) = delete;

    /** Attribute engine time to @p timer ("database" bucket) and SQL
     * parsing to "transformation". */
    void setPhaseTimer(PhaseTimer *timer) { timer_ = timer; }

    /** Open a session bound to the calling thread (blocking for a
     * WAL shard token) and return its handle. */
    Txn beginTxn(const TxnOptions &opts = {});

    /** @name Sessions by id (see file comment)
     *
     * Lifecycle: beginDetached -> {bindDetached ... statements ...
     * unbindDetached}* -> commitDetached / rollbackDetached. A finish
     * takes a parked session, or the one bound to the calling thread
     * (unbinding it); an unknown session or one bound to another
     * thread is StatusCode::kMisuse.
     */
    /// @{
    /** Open a detached transaction without blocking. kBusy (with
     * *id_out == 0) when every WAL shard token is taken — nothing
     * was opened; retry later. */
    Status beginDetached(const TxnOptions &opts, std::uint64_t *id_out);

    /** Bind parked session @p id to the calling thread. False when
     * the id is unknown, the session is bound, or the calling thread
     * already has an open session bound. */
    bool bindDetached(std::uint64_t id);

    /** Park the bound session again; fatal when @p id is not bound
     * to the calling thread. */
    void unbindDetached(std::uint64_t id);

    /** Commit/roll back a session. Reports kAborted/kWalFull/
     * kDeadlock/kConflict/kBusy when the engine already rolled the
     * transaction back mid-statement. */
    Status commitDetached(std::uint64_t id);
    Status rollbackDetached(std::uint64_t id);

    /** Open session count, Txn handles' included (leak checks). */
    std::size_t detachedCount() const;

    /** WAL shards whose transaction token is currently held (leak
     * checks: 0 once every session is finished). */
    unsigned busyWalShards() const;
    /// @}

    /** @name SQL (JDBC) path */
    /// @{
    ResultSet executeSql(const std::string &sql);
    /// @}

    /** @name Direct (DBPersistable) path */
    /// @{
    void createTable(const TableSchema &schema);

    /** Insert or (masked) update by primary key; fatal unless the
     * record has the table's column count and an integer pk (so is
     * updateRecord). */
    void persistRecord(const std::string &table, const DbRecord &record);

    /** Masked update ONLY — false when the pk is absent, never an
     * insert. The sharded layer's epoch-pair writes need to probe
     * "update wherever the row lives" without upsert resurrecting a
     * row on the wrong member mid-repartition. */
    bool updateRecord(const std::string &table, const DbRecord &record);

    bool fetchRecord(const std::string &table, std::int64_t pk,
                     DbRecord *out);

    /** Write-locking read: claim the row (strict 2PL, held to the
     * end of the current transaction) and return its committed
     * values; false when absent. The repartition row mover reads
     * the source row through this so the move serializes against
     * concurrent updates. */
    bool fetchForUpdate(const std::string &table, std::int64_t pk,
                        DbRecord *out);

    bool deleteRecord(const std::string &table, std::int64_t pk);

    /** Visit every live row's primary key (read-uncommitted; the
     * repartition scanner's enumeration). */
    void forEachPk(const std::string &table,
                   const std::function<void(std::int64_t)> &fn);

    /** Version-chain length behind @p pk (chain-trim regression
     * hook). */
    std::size_t versionChainDepth(const std::string &table,
                                  std::int64_t pk);

    /** Scan by single-column equality (child tables, fk lookups). */
    void scanEq(const std::string &table, const std::string &column,
                const DbValue &v,
                const std::function<void(const std::vector<DbValue> &)>
                    &fn);
    /// @}

    /** @name Reads at an explicit snapshot (sharded-bracket reads:
     * the calling thread need not hold an open member transaction) */
    /// @{
    bool fetchRecordAt(const std::string &table, std::int64_t pk,
                       DbRecord *out, Word snapshot);
    void scanEqAt(const std::string &table, const std::string &column,
                  const DbValue &v,
                  const std::function<void(const std::vector<DbValue> &)>
                      &fn,
                  Word snapshot);
    /// @}

    std::size_t rowCount(const std::string &table);

    /** Simulate a power failure and reopen (rolls back every open
     * txn; @p is_committed resolves transactions that crashed
     * between 2PC prepare and commit). Callers must be quiesced. */
    void crash(CrashMode mode = CrashMode::kDiscardUnflushed,
               std::uint64_t seed = 1,
               const WalShard::ResolveFn &is_committed = {});

    NvmDevice &device() { return *dev_; }
    const Catalog &catalog() const { return catalog_; }

    /** @name Introspection (tests, tools) */
    /// @{
    Wal &wal() { return *wal_; }
    CommitCoordinator &commitCoordinator() { return *coordinator_; }
    SnapshotClock &snapshotClock() { return *clock_; }

    /** WAL shard of the calling thread's bound session, else of its
     * auto-commit context. */
    unsigned currentTxShard();
    /// @}

  private:
    friend class Txn;
    friend class ShardedDatabase;

    /** One transaction context: a thread's idle auto-commit context,
     * or an explicit transaction's session. */
    struct TxContext
    {
        unsigned shardId = 0;
        /** An open explicit transaction; false once finished or
         * rolled back by the engine mid-statement (then abortCode
         * says why and the next finishTx() reports it). */
        bool explicitTx = false;
        StatusCode abortCode = StatusCode::kOk;
        /** A session bound to some thread (see ThreadSlot::bound). */
        bool bound = false;
        /** Snapshot timestamp (kNoSnapshot outside kSnapshot). */
        Word snapshot = kNoSnapshot;
        /** False when a sharded bracket registered the snapshot. */
        bool ownsSnapshot = false;
        /** Begin sequence of the open (or last) transaction; a
         * session's id. */
        std::uint64_t txnSeq = 0;
        RowTxState rowTx;
    };

    /** A thread's state in this engine. */
    struct ThreadSlot
    {
        /** Auto-commit context; its shard is the thread's home shard
         * (assigned at first use: rowTx.token != 0). */
        TxContext idle;
        /** The session bound to this thread (null: none). */
        TxContext *bound = nullptr;
    };

    /** The calling thread's slot, its home shard assigned. */
    ThreadSlot &threadSlot();

    /** Park @p slot's bound session if the engine killed it (its
     * handle or owner finishes it later); true when no session is
     * bound any more. Caller holds sessionsMu_. */
    bool parkKilled(ThreadSlot &slot);

    /** The context the calling thread's statements run in: its bound
     * session while that is open, else its idle context. */
    TxContext &txContext();

    /** Open an explicit transaction as a new session: blocking for a
     * WAL shard token, or (@p nowait) taking any free one and
     * bounding row-lock waits; @p bracket_snapshot is a sharded
     * bracket's already registered snapshot. A @p bind session
     * starts at the calling thread's home shard and is bound to it
     * (fatal when an open one already is); otherwise the start
     * rotates. Null only when a nowait begin found no free token. */
    TxContext *openSession(Isolation iso, Word bracket_snapshot,
                           bool nowait, bool bind);

    /** Remove session @p id from the table to finish it: a parked
     * one, or the one bound to the calling thread (unbound first).
     * Null when unknown or bound to another thread. */
    std::unique_ptr<TxContext> takeSession(std::uint64_t id);

    /** @return false only in nowait mode, when no WAL shard token
     * was free (nothing was opened). nowait begins also bound the
     * row-lock wait so the transaction aborts kBusy instead of
     * parking its thread. */
    bool beginTx(TxContext &ctx,
                 Isolation iso = Isolation::kReadUncommitted,
                 Word bracket_snapshot = kNoSnapshot,
                 bool nowait = false);
    void commitTx(TxContext &ctx);
    void rollbackTx(TxContext &ctx);

    /** The one finish path for a taken session: commit or roll it
     * back. When the engine already rolled it back mid-statement, a
     * commit reports why (abortCode) and a rollback succeeds. */
    Status finishTx(TxContext &ctx, bool commit);

    /** Post-durable-commit bookkeeping: allocate + publish the
     * commit timestamp, stamp rows, close the bracket. */
    void finishCommitLocal(TxContext &ctx);

    /** Shared tail of commit/rollback: writer exit, snapshot end,
     * shard release (a 2PC member's, once its finish is durable). */
    void endTxCommon(TxContext &ctx);

    /** True once this device's crash injector fired: the power is
     * gone and rollback is crash() recovery's job. */
    bool powerLost();

    /** Completion of an asynchronous commit step: the Status, or
     * the simulated power failure that killed its drain. */
    using StepFn = std::function<void(Status, std::exception_ptr)>;

    /** Commit taken session @p ctx through the group-commit drainer;
     * @p done fires on the drainer, or inline when nothing was
     * logged. The caller keeps @p ctx alive until then. */
    void commitTxAsync(TxContext &ctx, StepFn done);

    /** @name 2PC member steps on a taken session (driven by
     * ShardedDatabase's commit chain, from any thread) */
    /// @{
    /** True when @p ctx's transaction logged anything: only then
     * does it have images to prepare and a segment to finish. */
    bool loggedAny(const TxContext &ctx) const;

    /** Queue @p ctx's prepare under @p txn_id into the next batch;
     * @p done fires once images and prepared mark are durable. */
    void prepareTxAsync(TxContext &ctx, Word txn_id,
                        CommitCoordinator::DoneFn done);

    /** Publish @p ts as @p ctx's commit timestamp. Caller holds the
     * shared SnapshotClock's mu. */
    void publishCommitTsLocked(TxContext &ctx, Word ts);

    /** The commit point: stamp @p ctx's rows with @p ts and release
     * its row locks. */
    void releaseCommittedRows(TxContext &ctx, Word ts);

    /** Queue the retire of @p ctx's prepared segment into the next
     * batch (@p done fires once durable). */
    void finishTxAsync(TxContext &ctx, CommitCoordinator::DoneFn done);

    /** Retire a member that logged nothing (no fence). */
    void retireEmptyTx(TxContext &ctx);
    /// @}

    /** Snapshot of the calling thread's open bound session (or
     * kNoSnapshot). */
    Word currentSnapshot();

    /** Run @p fn inside the calling thread's transaction, opening a
     * statement-scoped one when none is active; a WAL-full error,
     * deadlock, or snapshot conflict rolls the whole transaction
     * back. */
    template <typename Fn> ResultSet mutate(Fn &&fn);

    ResultSet execute(const SqlStatement &stmt);
    std::size_t tableIndexOrDie(const std::string &table);
    ResultSet executeCreateTable(const TableSchema &schema);

    DatabaseConfig cfg_;
    std::size_t rowsOff_ = 0;
    std::unique_ptr<NvmDevice> dev_;
    Catalog catalog_;
    std::unique_ptr<Wal> wal_;
    std::unique_ptr<RowStore> rows_;
    std::unique_ptr<CommitCoordinator> coordinator_;
    PhaseTimer *timer_ = nullptr;

    /** In-flight transaction control blocks, indexed by token - 1
     * (one per WAL shard). */
    std::unique_ptr<TxnCtrl[]> ctrls_;
    /** Owned clock when no shared one was passed in. */
    std::unique_ptr<SnapshotClock> ownedClock_;
    SnapshotClock *clock_ = nullptr;
    /** Begin sequences for TxnCtrl::seq and session ids (never 0). */
    std::atomic<std::uint64_t> txnSeqCounter_{1};

    /** DDL serialization (DDL vs DML concurrency is the caller's
     * contract, matching the catalog's). */
    std::mutex ddlMu_;

    ThreadSlots<ThreadSlot> slots_;
    /** Every open session by id (under sessionsMu_); a bound one is
     * also pointed to by its thread's slot. */
    mutable SpinLock sessionsMu_;
    std::unordered_map<std::uint64_t, std::unique_ptr<TxContext>>
        sessions_;
    /** Rotating start shard for sessions not bound at birth, and
     * the home shard of each new thread. */
    std::atomic<unsigned> nextShard_{0};
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_DATABASE_HH
