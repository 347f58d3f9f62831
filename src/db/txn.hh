/**
 * @file
 * The explicit transaction-handle API and the MVCC clock machinery.
 *
 * Every explicit transaction on a Database or a ShardedDatabase is
 * one engine-owned session. An RAII db::Txn handle carrying
 * TxnOptions{isolation} is a session bound to the thread that began
 * it; sessions that hop threads are driven by id instead
 * (beginDetached, bind/unbindDetached, commit/rollbackDetached), and
 * a Txn finishes through the same commit/rollback path.
 *
 * Isolation levels:
 *  - kReadUncommitted (default, the pre-PR-6 behavior): reads never
 *    see torn rows but may see in-flight row images.
 *  - kSnapshot: the transaction takes a consistent snapshot S at
 *    begin. Reads resolve every row to its newest version committed
 *    at or before S, reconstructing overwritten rows from volatile
 *    version chains; a multi-row commit becomes visible atomically
 *    (all rows or none). Writes are first-committer-wins: writing a
 *    row that committed after S aborts with StatusCode::kConflict.
 *    Known limit: a snapshot transaction's reads come from its
 *    snapshot, so it does not observe its own uncommitted writes —
 *    write-heavy transactions should use kReadUncommitted (their
 *    writes are still fully atomic and durable).
 *
 * Every writer, at either level, keeps the version bookkeeping: it
 * saves each row's pre-image and marks the row dirty before its first
 * write, and stamps it with a commit timestamp at commit. A snapshot
 * can therefore begin at any moment without waiting for writers.
 * The bookkeeping is volatile (markers and stamps ride lines the row
 * write flushes anyway), so it adds no flush or fence.
 *
 * Version words: row header word 1 holds the row's commit timestamp
 * (clean, top bit 0) or an in-flight dirty marker packing the
 * writer's token + begin sequence; readers resolve markers through
 * the writer's TxnCtrl block.
 */

#ifndef ESPRESSO_DB_TXN_HH
#define ESPRESSO_DB_TXN_HH

#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "db/status.hh"
#include "util/common.hh"
#include "util/spin.hh"

namespace espresso {
namespace db {

class Database;
class ShardedDatabase;

enum class Isolation
{
    kReadUncommitted,
    kSnapshot,
};

struct TxnOptions
{
    Isolation isolation = Isolation::kReadUncommitted;
};

/** "No snapshot" sentinel; the clock starts at 1 so a real snapshot
 * timestamp is never 0. */
constexpr Word kNoSnapshot = 0;

/** @name Row version-word encoding (row header word 1) */
/// @{
constexpr Word kVersionDirtyBit = Word(1) << 63;
constexpr unsigned kVersionTokenShift = 48;
constexpr Word kVersionSeqMask = (Word(1) << kVersionTokenShift) - 1;
constexpr Word kVersionTokenMask = 0x7fff;

inline Word
makeDirtyVersion(Word token, Word seq)
{
    return kVersionDirtyBit | (token << kVersionTokenShift) |
           (seq & kVersionSeqMask);
}

inline bool
versionIsDirty(Word v)
{
    return (v & kVersionDirtyBit) != 0;
}

inline Word
dirtyVersionToken(Word v)
{
    return (v >> kVersionTokenShift) & kVersionTokenMask;
}

inline Word
dirtyVersionSeq(Word v)
{
    return v & kVersionSeqMask;
}
/// @}

/**
 * Per-token control block for the in-flight transaction on one WAL
 * shard (token = shard id + 1; the shard's exclusivity token
 * serializes its transactions). Cache-line sized so concurrent
 * readers of different writers' blocks never share a line.
 */
struct alignas(kCacheLineSize) TxnCtrl
{
    /** Begin sequence stamped into this txn's dirty markers; a
     * marker whose seq mismatches is stale (its txn finished). */
    std::atomic<Word> seq{0};

    /** 0 while running; the commit timestamp once durably
     * committed. Published under the SnapshotClock lock. */
    std::atomic<Word> commitTs{0};

    /** Token this transaction is spinning on (waits-for edge for
     * deadlock cycle detection); 0 when not waiting. */
    std::atomic<Word> waitingFor{0};
};

/**
 * The shared commit clock + active-snapshot registry. One per
 * Database, or one shared across every member of a ShardedDatabase
 * so a cross-shard commit flips visibility atomically for all
 * members.
 *
 * Critical sections of @p mu: commit-timestamp allocation (and
 * publication of that timestamp into every committing member's
 * TxnCtrl) and snapshot registration. A snapshot therefore sees a
 * multi-row, multi-member commit entirely or not at all. Since every
 * commit is stamped, a snapshot begin never waits for a writer.
 */
class SnapshotClock
{
  public:
    static constexpr Word kNoActiveSnapshots = ~Word(0);

    /** Guards clock and the registry; held across commit-ts
     * publication and snapshot-begin reads. */
    SpinLock mu;

    /** Last committed timestamp (starts at 1; guarded by mu). */
    Word clock = 1;

    /** Register a snapshot and return its timestamp S. */
    Word
    beginSnapshot()
    {
        SpinGuard g(mu);
        active_.insert(clock);
        return clock;
    }

    void
    endSnapshot(Word s)
    {
        SpinGuard g(mu);
        auto it = active_.find(s);
        if (it != active_.end())
            active_.erase(it);
    }

    /** Oldest registered snapshot, or kNoActiveSnapshots. */
    Word
    minActive()
    {
        SpinGuard g(mu);
        return active_.empty() ? kNoActiveSnapshots : *active_.begin();
    }

    /** Sorted copy of every active snapshot timestamp: the version
     * chain trimmer keeps, per active snapshot, only the newest
     * version at or below it. Empty = no active snapshots. */
    std::vector<Word>
    activeSnapshots()
    {
        SpinGuard g(mu);
        return {active_.begin(), active_.end()};
    }

    /** Raise the clock to at least @p v (crash recovery: committed
     * rows must stay in the past of new snapshots). */
    void
    noteRecoveredVersion(Word v)
    {
        SpinGuard g(mu);
        if (clock < v)
            clock = v;
    }

    /** After a simulated power failure: registered snapshots belong
     * to dead threads (callers quiesced). The clock value itself
     * only ever ratchets up. */
    void
    resetAfterCrash()
    {
        SpinGuard g(mu);
        active_.clear();
    }

  private:
    std::multiset<Word> active_; ///< guarded by mu
};

/**
 * An explicit transaction handle: the id of a session bound to the
 * thread that began it. Move-only and thread-affine: it must be
 * committed/rolled back on that thread; a finish from another thread
 * reports kMisuse and leaves the handle open, as does a finish after
 * crash() dropped the session. Destroying an open handle rolls the
 * transaction back — unless the power is gone (a SimulatedCrash is
 * unwinding), in which case crash() recovery rolls it back.
 */
class Txn
{
  public:
    Txn() = default;

    Txn(const Txn &) = delete;
    Txn &operator=(const Txn &) = delete;

    Txn(Txn &&o) noexcept { moveFrom(o); }

    Txn &
    operator=(Txn &&o) noexcept
    {
        if (this != &o) {
            abandon();
            moveFrom(o);
        }
        return *this;
    }

    ~Txn();

    /** Commit; every failure mode (WAL overflow, deadlock victim,
     * snapshot write conflict, engine-side abort) comes back as a
     * Status instead of an exception. */
    Status commit();

    Status rollback();

    /** The snapshot timestamp (kNoSnapshot for kReadUncommitted). */
    Word snapshot() const { return snapshot_; }

  private:
    friend class Database;
    friend class ShardedDatabase;

    Txn(Database *db, ShardedDatabase *sdb, std::uint64_t id,
        Word snapshot)
        : db_(db), sdb_(sdb), id_(id), snapshot_(snapshot)
    {}

    void
    moveFrom(Txn &o)
    {
        db_ = o.db_;
        sdb_ = o.sdb_;
        id_ = o.id_;
        snapshot_ = o.snapshot_;
        o.db_ = nullptr;
        o.sdb_ = nullptr;
        o.id_ = 0;
    }

    /** Commit or roll back through the minting engine; the handle
     * is spent unless the engine refused it (kMisuse). */
    Status finish(bool commit);

    /** Best-effort rollback of a still-open handle (dtor / move);
     * never throws. */
    void abandon() noexcept;

    Database *db_ = nullptr;
    ShardedDatabase *sdb_ = nullptr;
    /** The engine session's id. */
    std::uint64_t id_ = 0;
    Word snapshot_ = kNoSnapshot;
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_TXN_HH
