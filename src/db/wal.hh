/**
 * @file
 * Sharded write-ahead undo logging for the database device.
 *
 * Statement/transaction atomicity: before a row byte is overwritten,
 * its old image is persisted to the log; commit makes the new row
 * bytes durable and retires the log; reopening a crashed database
 * rolls back every in-flight transaction. (H2 keeps its own
 * transaction logs — the paper leaves "the data structures for
 * transaction control (like logging)" intact, so both the JPA and
 * PJO paths share this.)
 *
 * The log region is split into N independent shards so N
 * transactions can log concurrently without sharing any cache line.
 * Each shard is one undo segment: a one-line header (the durable
 * per-transaction commit record lives here) followed by checksummed
 * entries. Entries carry an epoch + sequence + checksum so recovery
 * can validate the segment even when the header line itself raced a
 * power failure: because every append ends with one fence covering
 * both the entry and the header, at most the tail entry of a segment
 * can be torn, and a torn tail always describes a row that was never
 * overwritten.
 *
 * Per-append protocol (one fence, down from the seed's two):
 *   write entry -> flush entry -> bump header -> flush header ->
 *   fence -> (caller may now overwrite the logged range)
 */

#ifndef ESPRESSO_DB_WAL_HH
#define ESPRESSO_DB_WAL_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/common.hh"
#include "util/logging.hh"

namespace espresso {

class NvmDevice;

namespace db {

/** Thrown when a transaction outgrows its undo segment. The engine
 * rolls the transaction back and stays usable — this is the one log
 * error a caller can provoke with ordinary (oversized) work. */
class WalFullError : public FatalError
{
  public:
    explicit WalFullError(const std::string &msg) : FatalError(msg) {}
};

/** One undo-log segment: at most one open transaction at a time. */
class WalShard
{
  public:
    WalShard(NvmDevice *device, Addr base, std::size_t size,
             unsigned id);

    WalShard(const WalShard &) = delete;
    WalShard &operator=(const WalShard &) = delete;

    /** @name Transaction bracket (engine guarantees exclusivity) */
    /// @{
    void begin();
    bool active() const;

    /**
     * Persist the old image of [addr, addr+len) before overwrite.
     * Ranges already logged by this transaction are skipped, so
     * hot-row rewrite loops cost one entry, not one per update.
     * @throws WalFullError when the segment cannot hold the entry.
     */
    void logRange(Addr addr, std::size_t len);

    /** Commit a transaction that logged nothing: clear the bracket
     * without any fence (there is nothing to make durable). */
    void retireEmpty();

    /** Stage the new images of every logged range (no fence). The
     * commit coordinator calls this for each batched shard, then
     * fences once. */
    void stageCommit();

    /** Stage the durable commit record: active=0, prepared=0,
     * committed+1 (no fence) — a one-phase commit's second stage, or
     * a decided 2PC member's finish. Caller fences after staging the
     * whole batch. */
    void stageRetire();

    /** Per-range notification after an undo restore (index repair). */
    using UndoFn = std::function<void(Addr, std::size_t)>;

    /**
     * Replacement for the raw undo memcpy: restore @p len bytes from
     * the log image to the device address. Lets the row layer take
     * the row latch around the copy so concurrent snapshot readers
     * never observe a half-restored row.
     */
    using RestoreFn =
        std::function<void(Addr, const std::uint8_t *, std::size_t)>;

    /** Roll the open transaction back and retire the segment.
     * @p on_undone runs after all images are restored and fenced. */
    void rollbackAndRetire(const UndoFn &on_undone = {},
                           const RestoreFn &restore = {});
    /// @}

    /** @name Two-phase commit member protocol
     *
     * stagePrepare() stages the new row images and the segment's
     * "prepared under @p txn_id" mark; the fence that follows (the
     * group-commit batch's first) makes them the member's yes-vote.
     * The coordinator then writes its durable decision record; only
     * after that may the member's retire record (stageRetire, the
     * batch's second fence) be staged. A crash in between leaves
     * active=1/prepared=txn_id, and recover() asks the resolver
     * whether the decision record exists: yes rolls the member
     * forward (the images are already durable — retire as
     * committed), no is presumed abort (undo rollback).
     */
    /// @{
    void stagePrepare(Word txn_id);
    Word preparedTxn() const { return header()->prepared; }

    /** Coordinator lookup: was this transaction's commit decision
     * durable? */
    using ResolveFn = std::function<bool(Word)>;
    /// @}

    /** Open-time recovery: validate the header, resolve a prepared
     * transaction through @p is_committed (absent resolver or absent
     * decision => presumed abort), roll back a torn or in-flight
     * transaction, tolerate a torn tail entry. */
    void recover(const ResolveFn &is_committed = {});

    /** @name Volatile shard-exclusivity token */
    /// @{
    bool tryAcquireTx();
    void acquireTx();
    void releaseTx();

    /** True while some transaction holds this shard's token (leak
     * detection: after a disconnect sweep every token must be
     * free). */
    bool
    txHeld() const
    {
        return busy_.load(std::memory_order_acquire) != 0;
    }
    /// @}

    /** @name Introspection (tests, stats) */
    /// @{
    std::size_t bytesUsed() const { return header()->used; }
    std::size_t entryCount() const { return header()->count; }
    std::uint64_t committedTxns() const { return header()->committed; }
    Addr segmentBase() const { return base_; }
    std::size_t segmentSize() const { return size_; }
    /// @}

  private:
    /** One cache line; epoch disambiguates stale entries from a
     * prior transaction in the same segment. */
    struct Header
    {
        Word active;
        Word count;
        Word used;
        Word committed; ///< durable commit record: txns retired
        Word epoch;     ///< bumped at begin(), stamped into entries
        Word prepared;  ///< 2PC: txn id of the prepared transaction
    };

    struct Entry
    {
        Word deviceOffset;
        Word length;
        Word epochSeq; ///< (epoch << 20) | ordinal
        Word check;    ///< checksum over fields + payload
    };

    Header *header() const { return reinterpret_cast<Header *>(base_); }
    Addr payload() const { return base_ + kCacheLineSize; }
    std::size_t capacity() const { return size_ - kCacheLineSize; }

    bool headerSane() const;
    static Word checksum(const Entry *entry);

    /** Walk the segment, returning the checksum-valid prefix. */
    std::vector<Entry *> walkValidEntries() const;

    void rollback(const std::vector<Entry *> &entries,
                  const UndoFn &on_undone,
                  const RestoreFn &restore = {});

    /** Clear the bracket after a rollback/recovery (not a commit). */
    void retire();

    NvmDevice *device_ = nullptr;
    Addr base_ = 0;
    std::size_t size_ = 0;
    unsigned id_ = 0;

    /** Volatile owner flag (one transaction per shard at a time). */
    std::atomic<Word> busy_{0};

    /** Ranges logged by the open transaction: addr -> longest length
     * logged, for the repeated-update dedup check. */
    std::unordered_map<Addr, std::size_t> logged_;
};

/** The sharded undo log over one device region. */
class Wal
{
  public:
    Wal() = default;

    /** @param device owning device; @param base log region address;
     * @param size region capacity; @param shards segment count. */
    Wal(NvmDevice *device, Addr base, std::size_t size,
        unsigned shards = 1);

    Wal(const Wal &) = delete;
    Wal &operator=(const Wal &) = delete;

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    WalShard &shard(unsigned i) { return shards_[i]; }
    const WalShard &shard(unsigned i) const { return shards_[i]; }

    /** Open-time recovery: every segment, every in-flight txn.
     * Prepared transactions resolve through @p is_committed. */
    void recover(const WalShard::ResolveFn &is_committed = {});

  private:
    std::deque<WalShard> shards_;
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_WAL_HH
