/**
 * @file
 * ShardedDatabase — the embedded database over a consistent-hash
 * shard fabric.
 *
 * Partitions every table horizontally by primary key: pk → shard via
 * the same ShardRouter the heap fabric uses, one full Database engine
 * (catalog + row store + sharded undo WAL + group-commit coordinator)
 * per shard, each on its own NvmDevice. DDL broadcasts; the direct
 * (DBPersistable) record path routes point operations by pk and fans
 * scans out across members in shard order. Because every member owns
 * its WAL, crash recovery is per-shard-local — one member's power
 * failure never corrupts the others.
 *
 * Transactions are sessions, like Database's: every bracket — a Txn
 * from beginTxn(), or one opened by beginDetached() — is one entry in
 * the engine's bracket table, parked or bound to exactly one thread
 * (a thread's slot is just a pointer to its bound bracket). A bracket
 * joins a member on its first write there by opening a member session
 * bound alongside it, and records that session's id, so bind, unbind,
 * abort and commit are loops over member sessions. A Txn is bound at
 * birth; its begin parks on the membership barrier and its member
 * joins block for WAL shard tokens. A beginDetached() bracket never
 * blocks: the begin and every member join return kBusy instead, and
 * its row-lock waits are bounded. Txn::commit() is commitDetached():
 * with zero or one member the commit runs on the caller; with more it
 * runs the chain below and waits. Only commitDetachedAsync hands a
 * single member to its group-commit drainer.
 *
 * Cross-shard atomicity is two-phase commit, run as a continuation
 * chain through the members' group-commit drainers so no thread
 * blocks on it (see commitDetachedAsync):
 *
 *  1. prepare: each member that logged anything queues a prepare
 *     entry in its own CommitCoordinator — its new images and its
 *     undo segment's "prepared under txn id" mark ride that batch's
 *     first fence — so members prepare in parallel, each on its own
 *     device;
 *  2. decision: the last prepare to complete publishes the commit
 *     decision as one fenced record in the coordinator's DecisionLog
 *     (its own small NVM device). That record is the commit point:
 *     right after it, inside one clock critical section, the bracket
 *     takes its commit timestamp and publishes it to every member;
 *     then every member's rows are stamped and its row locks
 *     released — before any member has retired its segment;
 *  3. finish: each prepared member queues its retire record, which
 *     rides its batch's second fence; the last finish clears the
 *     decision slot, frees the members' WAL tokens and closes the
 *     bracket.
 *
 * crash() recovery reads the surviving decisions and rolls a member's
 * prepared segment forward iff its transaction id has one, else back
 * (presumed abort) — so a crash anywhere in the protocol leaves all
 * members committed or all rolled back. Early lock release is safe
 * because a durable decision never rolls back: a later writer of a
 * released row logs the committed image as its own undo. The decision
 * is written only after every prepare fence, and its slot is cleared
 * only after every finish is durable. When all 64 decision slots are
 * in flight the chain parks until a finish frees one. Zero-member
 * (read-only) and engine-aborted brackets finish inline; single-
 * member brackets commit through that member's group-commit path.
 *
 * Isolation: members share one SnapshotClock, so a kSnapshot bracket
 * takes a single fabric-wide timestamp and the 2PC decision flips
 * visibility of all members' rows atomically (the commit timestamp
 * is published into every member's control block inside one clock
 * critical section). A WAL-full, deadlock, or snapshot conflict on
 * any member aborts the whole bracket: every touched shard rolls
 * back and the error propagates; a subsequent Txn::commit() reports
 * it as a db::Status.
 *
 * Single-row auto-committed operations (the YCSB pattern) involve
 * exactly one shard and keep Database's full atomicity story.
 *
 * Elastic membership (PR 7): grow()/shrink() repartition every table
 * over a new ring while point operations and brackets keep running.
 * The change publishes an epoch *pair* {committed, next}: writes and
 * inserts route by the next ring immediately; reads probe the new
 * home first and fall back to the old one while rows stream over.
 * Each remapped row moves in its own cross-shard 2PC bracket
 * (write-lock source → upsert dest → delete source → commit), so a
 * mover and a concurrent user write serialize on the row lock and a
 * snapshot scan sees exactly one copy of every row. In-flight
 * brackets drain at two fences — before the pair is published and
 * before the new ring is committed — matching the heap fabric's
 * declare → migrate → commit protocol. A crash mid-change is resumed
 * by resumeMembershipChange() after crash(); the per-row move
 * brackets are idempotent (absent source rows are skipped), so the
 * repartition simply re-runs. Shrunk members are retained as
 * unlisted zombies so member indices stay stable for the life of
 * the instance.
 *
 * Caller contracts (same as Database): DDL, crash()/crashShard(),
 * and grow()/shrink() must not run concurrently with other
 * statements *on the calling thread*; other threads' traffic keeps
 * flowing and is drained at the two fences. The SQL ingress path is
 * not routed (use a per-shard Database for SQL); the record path is
 * the sharded surface.
 */

#ifndef ESPRESSO_DB_SHARDED_DATABASE_HH
#define ESPRESSO_DB_SHARDED_DATABASE_HH

#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.hh"
#include "nvm/decision_log.hh"
#include "pjh/shard_router.hh"

namespace espresso {
namespace db {

/** Sizing for a ShardedDatabase. */
struct ShardedDatabaseConfig
{
    /** Per-member engine sizing. */
    DatabaseConfig shard;

    /** Member count; 0 resolves ESPRESSO_SHARDS, then 1. */
    unsigned shards = 0;

    /** Ring points per member; 0 resolves ESPRESSO_SHARD_VNODES,
     * then ShardRouter::kDefaultVnodes. */
    unsigned vnodes = 0;
};

/** One pk-partitioned database fabric. */
class ShardedDatabase
{
  public:
    explicit ShardedDatabase(const ShardedDatabaseConfig &cfg = {},
                             NvmConfig nvm_cfg = {});
    ~ShardedDatabase();

    ShardedDatabase(const ShardedDatabase &) = delete;
    ShardedDatabase &operator=(const ShardedDatabase &) = delete;

    /** @name Geometry */
    /// @{
    /** Listed member count: the committed membership, or the union
     * of old and new memberships while a change is migrating (scans
     * must cover joiners and leavers until the commit fence). */
    unsigned
    shardCount() const
    {
        return memberCount_.load(std::memory_order_acquire);
    }

    Database &shard(unsigned i) { return *shards_[i]; }

    /** The catalog every member carries (DDL broadcasts). */
    const Catalog &catalog() const { return shards_[0]->catalog(); }

    /** The committed ring (reads; the pre-change ring mid-change). */
    const ShardRouter &router() const { return routingRef().committed; }

    /** Routes by the *next* ring: where writes land, and where a
     * remapped pk lives once its move bracket commits. */
    unsigned
    shardIndexForPk(std::int64_t pk) const
    {
        return routingRef().next.shardForKey(
            static_cast<std::uint64_t>(pk));
    }

    Database &
    shardForPk(std::int64_t pk)
    {
        return *shards_[shardIndexForPk(pk)];
    }
    /// @}

    /** @name Elastic membership */
    /// @{
    /**
     * Add @p added members and repartition every table over the
     * grown ring while traffic keeps flowing (see the file comment
     * for the fence protocol). Joiners replay the catalog before
     * they are published. Serializes against other membership
     * changes; the calling thread must hold no open bracket.
     */
    void grow(unsigned added);

    /** Remove the top @p removed members, streaming every row they
     * hold to its new home first. The shrunk members' engines are
     * retained (unlisted) until destruction. */
    void shrink(unsigned removed);

    /** Re-run an interrupted membership change after crash(): the
     * repartition's per-row move brackets are idempotent, so the
     * change rolls forward to its commit fence. No-op when no
     * change was in flight. */
    void resumeMembershipChange();

    /** True while a membership change is streaming rows. */
    bool migrating() const { return routingRef().migrating; }
    /// @}

    /** Open a cross-shard bracket bound to the calling thread and
     * return its handle. */
    Txn beginTxn(const TxnOptions &opts = {});

    /** @name Brackets by id (see file comment)
     *
     * Lifecycle: beginDetached -> {bindDetached ... record ops ...
     * unbindDetached}* -> commitDetachedAsync / commitDetached /
     * rollbackDetached. A finish takes a parked bracket, or the one
     * bound to the calling thread (unbinding it); an unknown bracket
     * or one bound to another thread is kMisuse. An open bracket
     * counts toward the bracket-drain fence, so grow()/shrink() waits
     * for in-flight wire transactions (and beginDetached declines
     * kBusy while a change is draining).
     */
    /// @{
    /** Open a parked, never-blocking bracket; kBusy (with *id_out ==
     * 0) while a membership change is draining brackets. */
    Status beginDetached(const TxnOptions &opts, std::uint64_t *id_out);

    /** Bind bracket @p id (and its member sessions) to the calling
     * thread. False when unknown, bound, or the thread already has an
     * open bracket bound. */
    bool bindDetached(std::uint64_t id);

    /** Park the bound bracket again (fatal when @p id is not bound
     * to the calling thread). */
    void unbindDetached(std::uint64_t id);

    /** Commit bracket @p id without blocking the calling thread
     * (see the file comment for the chain). @p done fires inline for
     * a read-only, engine-aborted (its abort code), unknown or bound
     * elsewhere (kMisuse) bracket; otherwise on a member's drainer
     * once the commit is durable — kAborted when a simulated power
     * failure killed it. */
    void commitDetachedAsync(std::uint64_t id,
                             std::function<void(Status)> done);

    /** Commit bracket @p id and wait: zero or one member commits on
     * the calling thread, more run the commit chain. */
    Status commitDetached(std::uint64_t id);

    /** Roll bracket @p id back (an engine-killed one succeeds). */
    Status rollbackDetached(std::uint64_t id);

    /** Open bracket count, Txn handles' included (leak checks). */
    std::size_t detachedCount() const;

    /** Held WAL shard tokens across all members (leak checks). */
    unsigned busyWalShards() const;
    /// @}

    /** @name Direct (DBPersistable) path, pk-routed */
    /// @{
    /** Broadcast DDL: every member carries every table's schema. */
    void createTable(const TableSchema &schema);

    void persistRecord(const std::string &table, const DbRecord &record);

    /** Masked update ONLY — false when the pk is absent (the wire
     * kUpdate surface; same migration-aware two-home probing as
     * persistRecord). */
    bool updateRecord(const std::string &table, const DbRecord &record);

    bool fetchRecord(const std::string &table, std::int64_t pk,
                     DbRecord *out);
    bool deleteRecord(const std::string &table, std::int64_t pk);

    /** Fan-out scan in ascending shard order. */
    void scanEq(const std::string &table, const std::string &column,
                const DbValue &v,
                const std::function<void(const std::vector<DbValue> &)>
                    &fn);

    /** Sum over members. */
    std::size_t rowCount(const std::string &table);
    /// @}

    /** @name Failure simulation */
    /// @{
    /**
     * Power-fail member @p i only; it recovers from its own WAL
     * while the other members keep serving *reads and new
     * auto-committed work*. Every thread's bracket slot is dropped,
     * so callers must be quiesced with no
     * open transaction bracket anywhere (same contract as
     * Database::crash); under that contract no member holds 2PC
     * prepared state, so the member recovers presumed-abort.
     */
    void crashShard(unsigned i,
                    CrashMode mode = CrashMode::kDiscardUnflushed,
                    std::uint64_t seed = 1);

    /** Power-fail every member *and the coordinator device*, then
     * recover: surviving commit decisions roll their prepared
     * members forward, everything else rolls back. Callers must be
     * quiesced (brackets killed mid-2PC by a SimulatedCrash count
     * as quiesced — their threads are dead). */
    void crash(CrashMode mode = CrashMode::kDiscardUnflushed,
               std::uint64_t seed = 1);
    /// @}

    /** @name Introspection (tests, tools) */
    /// @{
    /** The 2PC coordinator's decision-log device (fault-injection
     * point for crash sweeps). */
    NvmDevice &coordinatorDevice() { return *coordDev_; }

    SnapshotClock &snapshotClock() { return clock_; }
    /// @}

  private:
    friend class Txn;

    static constexpr unsigned kCoordSlots = 64;
    static constexpr unsigned kNoCoordSlot = ~0u;

    /** One bracket: a session of this engine (see file comment). */
    struct Bracket
    {
        /** False once the engine killed the bracket mid-statement
         * (WAL-full, deadlock victim, snapshot conflict, kBusy join):
         * its members are rolled back and a commit reports
         * abortCode. */
        bool open = true;
        StatusCode abortCode = StatusCode::kOk;
        Isolation isolation = Isolation::kReadUncommitted;
        /** Bracket-wide snapshot (kNoSnapshot outside kSnapshot). */
        Word snapshot = kNoSnapshot;
        /** Member joins and row-lock waits never block: they abort
         * the bracket kBusy instead (beginDetached brackets). */
        bool nowait = false;
        /** Bound to some thread (see ThreadSlot::bound). */
        bool bound = false;
        /** Per member index: the member session this bracket joined
         * (0 = none). */
        std::vector<std::uint64_t> members;
    };

    /** A thread's state in this engine. */
    struct ThreadSlot
    {
        /** The bracket bound to this thread (null: none). */
        Bracket *bound = nullptr;
    };

    /** The calling thread's bound bracket (null: none). */
    Bracket *boundBracket() { return slots_.get().bound; }

    /** The bound open bracket's snapshot (else kNoSnapshot). */
    Word
    bracketSnapshot()
    {
        Bracket *b = boundBracket();
        return b != nullptr && b->open ? b->snapshot : kNoSnapshot;
    }

    /** Park @p slot's bound bracket if the engine killed it (its
     * handle or owner finishes it later); true when no bracket is
     * bound any more. Caller holds bracketsMu_. */
    bool parkKilled(ThreadSlot &slot);

    /** Admit (see the drain fence) and register a new open bracket
     * and return its id — 0 when @p nowait and a membership change
     * is draining brackets; @p bind_to binds it to that (the calling
     * thread's) slot. */
    std::uint64_t openBracket(const TxnOptions &opts, bool nowait,
                              ThreadSlot *bind_to);

    /** @name The commit chain (see the file comment) */
    /// @{
    struct CommitChain;
    using ChainPtr = std::shared_ptr<CommitChain>;

    /** Take bracket @p id and its member sessions out of the tables
     * to finish it: a parked bracket, or the one bound to the calling
     * thread. Null when unknown or bound to another thread. */
    ChainPtr takeChain(std::uint64_t id);

    /** Finish @p c by member count: inline, through the single
     * member's group commit, or as 2PC. */
    void startCommit(ChainPtr c);

    /** Run @p c's 2PC and wait for it; rethrows a simulated crash. */
    Status commitAndWait(ChainPtr c);

    /** 2PC steps: one prepare done; publish the decision and release
     * the locks; one finish done; tear down after a failure. */
    void onPrepared(const ChainPtr &c, std::exception_ptr err);
    void decide(const ChainPtr &c);
    void onFinished(const ChainPtr &c, std::exception_ptr err);
    void failChain(const ChainPtr &c);
    /// @}

    /** Release @p b's snapshot and drain-fence count; mark it
     * closed. */
    void closeBracket(Bracket &b);

    /** Open @p b's session on member @p idx if needed (no-op outside
     * an open bracket). */
    void joinShard(Bracket *b, unsigned idx);

    /** Kill @p b after a member aborted mid-statement: roll back
     * every member session and close it. */
    void noteMemberAbort(Bracket *b, StatusCode code);

    /** True once the coordinator's or a listed member's crash
     * injector fired (see Database::powerLost). */
    bool powerLost();

    /** @name Coordinator decision-slot allocation */
    /// @{
    /** Give @p c a free decision slot, or park it (false) until a
     * finishing chain releases one. */
    bool claimCoordSlot(const ChainPtr &c);

    /** Free @p slot — or hand it to the oldest parked chain, which
     * the caller then resumes (returned). */
    ChainPtr releaseCoordSlot(unsigned slot);
    /// @}

    /** Run a point operation on @p pk: @p last on the pk's home
     * member, or mid-migration @p probe at the new home, then the
     * old, then @p last at the new home. A @p write joins the
     * calling thread's bracket to those members, and a member abort
     * kills the bracket. */
    template <typename Probe, typename Last>
    bool routed(std::int64_t pk, bool write, Probe &&probe, Last &&last);

    /** pk of @p record, fatal unless it fits @p table's shape with an
     * integer pk. */
    std::int64_t pkOf(const std::string &table, const DbRecord &record);

    const RoutingEpoch &routingRef() const { return *routing_.current(); }

    /** @name Membership-change machinery (membershipMu_ held) */
    /// @{
    /** Declare + migrate + commit for from → target members. */
    void runMembershipChangeLocked(unsigned from, unsigned target);

    /** Stream every remapped row to its new home, one idempotent
     * 2PC bracket per row. */
    void repartition(unsigned from, unsigned target);

    /** Move one row: lock at @p src, upsert at @p dst, delete at
     * @p src, commit — retrying when chosen as a deadlock victim. */
    void moveRow(const std::string &table, unsigned src, unsigned dst,
                 std::int64_t pk);

    /** Construct one joiner engine and replay the catalog into it. */
    void addMemberLocked();
    /// @}

    /** @name Bracket drain fence */
    /// @{
    /** Raise the barrier and wait for every counted bracket to
     * close (new beginTxn calls park on the barrier). */
    void quiesceBrackets();
    void releaseBrackets();
    /// @}

    ShardedDatabaseConfig cfg_;
    /** Ring points per member (resolved once; rebuilt rings match). */
    unsigned vnodes_ = ShardRouter::kDefaultVnodes;
    /** Member engine sizing, kept for joiners. */
    NvmConfig nvmCfg_;

    /** Current routing epoch pair. */
    RoutingEpochs routing_;

    /** Listed members (see shardCount()). */
    std::atomic<unsigned> memberCount_{0};

    /** Serializes membership changes. */
    SpinLock membershipMu_;
    /** In-flight change for resumeMembershipChange() (guarded by
     * membershipMu_). */
    bool migrPending_ = false;
    unsigned migrFrom_ = 0;
    unsigned migrTarget_ = 0;

    /** Bracket drain fence: beginTxn parks while the barrier is up;
     * quiesceBrackets waits for the count to hit zero. */
    std::atomic<bool> bracketBarrier_{false};
    std::atomic<unsigned> activeBrackets_{0};

    /** Every open bracket by id (under bracketsMu_); a bound one is
     * also pointed to by its thread's slot. Lock order: bracketsMu_
     * before any member's session lock. */
    mutable SpinLock bracketsMu_;
    std::unordered_map<std::uint64_t, Bracket> brackets_;
    ThreadSlots<ThreadSlot> slots_;

    /** One commit clock across all members: cross-shard commits get
     * one timestamp, snapshots are fabric-wide. */
    SnapshotClock clock_;

    /** The coordinator's own durable home (decision records must
     * survive crashes independently of any member). */
    std::unique_ptr<NvmDevice> coordDev_;
    DecisionLog coordLog_;
    /** Guards id reservation, the slot bitmap and the parked
     * chains. */
    SpinLock coordMu_;
    /** Live decision slots (bit i = slot i claimed). */
    std::uint64_t coordSlots_ = 0;
    /** Chains waiting for a decision slot, oldest first. */
    std::deque<ChainPtr> parkedChains_;

    /** Member engines. Reserved to RingManifestData::kMaxShards up
     * front so push_back never reallocates under indexed readers;
     * shrunk members stay as unlisted zombies (indices are stable
     * for the life of the instance). */
    std::vector<std::unique_ptr<Database>> shards_;

    /** Bracket ids (never 0). */
    std::atomic<std::uint64_t> seqCounter_{1};
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_SHARDED_DATABASE_HH
