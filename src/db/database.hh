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
 * Transactions: beginTxn(TxnOptions) opens an explicit transaction
 * on the calling thread and returns its RAII Txn handle, whose
 * commit()/rollback() report every failure mode as a db::Status.
 * Each thread's open transaction lives in a TxContext owning one WAL
 * shard and the row write-set, so N threads run N transactions
 * concurrently. Commits drain through the group-commit coordinator
 * (batch window: DatabaseConfig::groupCommitWindowUs, or the
 * ESPRESSO_DB_GROUP_COMMIT env var in microseconds; 0 = eager).
 * Write-write conflicts across rows need no caller-side lock order:
 * a wait that closes a cycle aborts its youngest transaction with
 * StatusCode::kDeadlock. Isolation::kSnapshot gives latch-free
 * consistent reads at the transaction's begin timestamp, with
 * first-committer-wins write conflicts (StatusCode::kConflict) — see
 * db/txn.hh. Caller contracts: DDL (createTable / CREATE TABLE) and
 * crash() must not run concurrently with other statements.
 *
 * Detached sessions (PR 10, the wire front door): a Txn handle is
 * thread-affine by design — commit() from another thread reports
 * StatusCode::kMisuse ("foreign or stale transaction handle").
 * Network servers need the opposite: a connection's transaction must
 * hop between event-loop worker threads and commit on whichever
 * thread the group-commit drainer runs. beginDetached() opens a
 * transaction that lives in the engine (not in any thread's slot);
 * bindDetached()/unbindDetached() splice it into the calling
 * thread's slot around each statement batch, and
 * commitDetached()/commitDetachedAsync()/rollbackDetached() finish
 * it from any thread. Detached begins never block: they take a free
 * WAL shard token or fail with StatusCode::kBusy (admission
 * control), and their row-lock waits are bounded (kBusy abort) so an
 * event-loop worker can never park behind a stalled session.
 */

#ifndef ESPRESSO_DB_DATABASE_HH
#define ESPRESSO_DB_DATABASE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "db/catalog.hh"
#include "db/commit_coordinator.hh"
#include "db/row_store.hh"
#include "db/sql_parser.hh"
#include "db/status.hh"
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

    /** Open an explicit transaction on the calling thread and return
     * its handle. */
    Txn beginTxn(const TxnOptions &opts = {});

    /** @name Detached transaction sessions (wire front door)
     *
     * Transferable transactions for servers whose connections hop
     * between worker threads (see file comment). Lifecycle:
     * beginDetached -> {bindDetached ... statements ...
     * unbindDetached}* -> commitDetached / commitDetachedAsync /
     * rollbackDetached. A session is either parked (owned by the
     * engine) or bound to exactly one thread; finishing a bound
     * session is a fatal protocol error.
     */
    /// @{
    /** Open a detached transaction without blocking. kBusy (with
     * *id_out == 0) when every WAL shard token is taken — nothing
     * was opened; retry later. */
    Status beginDetached(const TxnOptions &opts, std::uint64_t *id_out);

    /** Splice session @p id into the calling thread's transaction
     * slot (the slot's idle context, if any, is stashed and restored
     * on unbind). False when the id is unknown, the session is bound
     * elsewhere, or the calling thread has its own open
     * transaction. */
    bool bindDetached(std::uint64_t id);

    /** Park the bound session again; fatal when @p id is not bound
     * to the calling thread. */
    void unbindDetached(std::uint64_t id);

    /** Park the calling thread's open explicit transaction as a new
     * detached session and return its id (fatal without one). The
     * wire workers' auto-commit path: begin on the worker, execute,
     * detach, hand the commit to the async drainer. */
    std::uint64_t detachCurrentTx();

    /** Commit/roll back a parked session from any thread. Reports
     * kAborted/kWalFull/kDeadlock/kConflict/kBusy when the engine
     * already rolled the transaction back mid-statement. */
    Status commitDetached(std::uint64_t id);
    Status rollbackDetached(std::uint64_t id);

    /** Commit a parked session through the group-commit batcher
     * without blocking the calling thread; @p done fires on the
     * drainer thread (or inline for an empty/already-aborted
     * transaction) once the commit is durable. */
    void commitDetachedAsync(std::uint64_t id,
                             std::function<void(Status)> done);

    /** Parked + bound session count (leak checks). */
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

    /** Insert or (masked) update by primary key. */
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

    /** WAL shard bound to the calling thread. */
    unsigned currentTxShard();
    /// @}

  private:
    friend class Txn;
    friend class ShardedDatabase;

    /** Per-thread transaction state. */
    struct TxContext
    {
        unsigned shardId = 0;
        bool explicitTx = false;
        /** Set when the engine rolled an explicit txn back
         * mid-statement (log full, deadlock victim, snapshot
         * conflict); the next finishTx() reports abortCode. */
        bool aborted = false;
        StatusCode abortCode = StatusCode::kOk;
        Isolation isolation = Isolation::kReadUncommitted;
        /** Snapshot timestamp (kNoSnapshot outside kSnapshot). */
        Word snapshot = kNoSnapshot;
        /** False when a sharded bracket registered the snapshot. */
        bool ownsSnapshot = false;
        /** Begin sequence of the open (or last) transaction; ties a
         * Txn handle to the engine-side state. */
        std::uint64_t txnSeq = 0;
        RowTxState rowTx;
    };

    /** A parked transferable transaction (see beginDetached). */
    struct DetachedSession
    {
        /** The parked transaction (null while bound to a thread). */
        std::unique_ptr<TxContext> ctx;
        /** The binder's displaced idle slot context. */
        std::unique_ptr<TxContext> stash;
        /** Thread token of the binder (0 = parked). */
        std::uint64_t boundToken = 0;
    };

    TxContext &txContext();
    TxContext *txContextIfAny() const;

    /** Remove parked session @p id from the table (fatal when
     * unknown or bound). */
    std::unique_ptr<TxContext> takeDetached(std::uint64_t id);

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

    /** Open an explicit transaction on the calling thread's context
     * (see beginTx for @p nowait; @p bracket_snapshot is a sharded
     * bracket's already registered snapshot). Null only when a
     * nowait begin found no free WAL shard token. */
    TxContext *openTx(Isolation iso,
                      Word bracket_snapshot = kNoSnapshot,
                      bool nowait = false);

    /** The one finish path for an explicit transaction: commit or
     * roll it back. When the engine already rolled it back
     * mid-statement, a commit reports why (abortCode, else
     * kAborted) and a rollback succeeds; a finished transaction is
     * kMisuse. */
    Status finishTx(TxContext &ctx, bool commit);

    /** Post-durable-commit bookkeeping: allocate + publish the
     * commit timestamp, stamp rows, close the bracket. */
    void finishCommitLocal(TxContext &ctx);

    /** Shared tail of commit/rollback: writer exit, snapshot end,
     * shard release (a 2PC member's, once its finish is durable). */
    void endTxCommon(TxContext &ctx);

    /** Finish the calling thread's transaction for the Txn handle
     * minted with @p seq (kMisuse for a foreign or stale handle). */
    Status finishHandle(std::uint64_t seq, bool commit);

    /** True once this device's crash injector fired: the power is
     * gone and rollback is crash() recovery's job. */
    bool powerLost();

    /** Completion of an asynchronous commit step: the Status, or
     * the simulated power failure that killed its drain. */
    using StepFn = std::function<void(Status, std::exception_ptr)>;

    /** Commit @p ctx's transaction (already marked finished) through
     * the group-commit drainer; @p done fires on the drainer, or
     * inline when nothing was logged. The caller keeps @p ctx alive
     * until then. */
    void commitTxAsync(TxContext &ctx, StepFn done);

    /** @name 2PC member steps on an explicit context (driven by
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

    /** Snapshot of the calling thread's open transaction (or
     * kNoSnapshot). */
    Word currentSnapshot() const;

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
    /** Begin sequences for TxnCtrl::seq / Txn handles (never 0). */
    std::atomic<std::uint64_t> txnSeqCounter_{1};

    /** DDL serialization (DDL vs DML concurrency is the caller's
     * contract, matching the catalog's). */
    std::mutex ddlMu_;

    mutable SpinLock ctxMu_;
    /** Keyed by a never-recycled per-thread token (std::thread::id
     * values can be reused, which would hand a new thread a dead
     * thread's transaction state). Entries are not reaped; growth is
     * bounded by the number of threads that ever touch this
     * database. */
    std::unordered_map<std::uint64_t, std::unique_ptr<TxContext>>
        ctxs_;
    /** Detached sessions by id (under ctxMu_). */
    std::unordered_map<std::uint64_t, DetachedSession> detached_;
    std::atomic<std::uint64_t> detachedIdCounter_{1};
    std::atomic<unsigned> nextShard_{0};

    /** Identity for the thread-local context cache. */
    std::uint64_t serial_;
    /** Bumped by crash() so stale cached contexts revalidate. */
    std::atomic<std::uint64_t> generation_{0};
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_DATABASE_HH
