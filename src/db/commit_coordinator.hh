/**
 * @file
 * Group commit: batch the flush+fence drain of concurrently
 * committing transactions into one cycle.
 *
 * Eager commit pays two fences per transaction (new images, then the
 * commit record). With K transactions committing concurrently the
 * coordinator elects the first arrival leader; the leader waits up
 * to the batch window for the other in-flight transactions to arrive
 * and then drains the whole batch — every shard's new images staged,
 * one fence, every shard's commit record staged, one fence — so the
 * per-batch fence cost is constant in K.
 *
 * A batch carries three kinds of entry, all sharing the same two
 * fences:
 *
 *  - commit: a single-member transaction — its new images ride the
 *    first fence, its commit record the second;
 *  - prepare: a 2PC member's yes-vote — its new images and its
 *    "prepared under txn id" mark ride the first fence;
 *  - finish: a decided 2PC member's retire record rides the second
 *    fence.
 *
 * A fence with nothing staged for it is skipped, so a batch of only
 * prepares (or only finishes) costs one fence. Members of a
 * cross-shard commit thereby prepare in parallel, each on its own
 * device, batched with whatever else that member is committing (see
 * ShardedDatabase for the chain that drives them).
 *
 * Small batches drain inline on the leader thread. Large batches fan
 * the first stage out across the persistent WorkerPool — each worker
 * stages its slice of shards and fences them in parallel — before
 * the leader's single retire fence, so the serial drain depth stays
 * constant no matter how wide a burst commits. The fan-out is used
 * only on hosts with enough cores for the workers' fences to really
 * overlap; otherwise every batch drains inline.
 *
 * Two entry points for commits:
 *
 *  - commit(): the classic blocking path — the caller parks until
 *    its commit record is durable (and may be elected leader). With
 *    a zero window the caller drains its own entry as a batch of one
 *    through the same drain and accounting as a leader, on its own
 *    thread: it neither waits for nor joins another thread's batch,
 *    so single-threaded behavior (and its crash sweep event stream)
 *    is stage, fence, retire, fence — as without a coordinator.
 *  - commitAsync() / prepareAsync() / finishAsync(): the caller
 *    (an event-loop worker, or a 2PC continuation running on another
 *    member's drainer) parks only the *entry* here and returns; a
 *    lazily spawned drainer thread acts as the standing leader and
 *    invokes the completion callback — off the coordinator mutex, on
 *    the drainer thread — once the batch is durable. Sync and async
 *    entries share batches. Even with a zero window the drainer
 *    drains whatever accumulated while the previous batch fenced.
 *
 * Prepare and finish entries never hold a batch open: a 2PC chain
 * holds row locks and WAL tokens on several members, so a leader
 * drains as soon as one is pending.
 *
 * Window auto-tuning (ESPRESSO_DB_GROUP_COMMIT=auto): with
 * window_ns == kAutoWindow the effective window is derived from an
 * EWMA of commit arrival gaps, scaled by the in-flight transaction
 * count and clamped to kAutoMaxWindowNs — and to the coordinator's
 * own measured drain time (an EWMA of its stage+fence cycle). Waiting
 * longer than one drain cannot pay: stragglers arriving later simply
 * ride the next batch, which starts as soon as this one is durable.
 * The cap matters because the in-flight count includes transactions
 * that can never join the batch (parked on the network, or inside
 * 2PC). With at most one committer in flight, or before any drain
 * has been measured, the effective window is zero — the eager path —
 * so an uncontended thread never waits for stragglers that cannot
 * exist. Fixed windows are used as configured.
 */

#ifndef ESPRESSO_DB_COMMIT_COORDINATOR_HH
#define ESPRESSO_DB_COMMIT_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.hh"
#include "util/worker_pool.hh"

namespace espresso {

class NvmDevice;

namespace db {

class WalShard;

/** Batches concurrent transaction commits into shared drain cycles. */
class CommitCoordinator
{
  public:
    /** Largest batch one drain cycle will absorb. */
    static constexpr unsigned kMaxBatch = 64;

    /** Batches at least this big stage through the WorkerPool. */
    static constexpr unsigned kParallelDrainMin = 8;

    /** Stage-fan-out width for pool drains. */
    static constexpr unsigned kDrainWorkers = 4;

    /** window_ns sentinel: derive the window from the observed
     * commit arrival rate (see file comment). */
    static constexpr std::uint64_t kAutoWindow = ~0ull;

    /** Ceiling for the auto-tuned window. Sized so that even when
     * commit arrivals are a few hundred microseconds apart (small
     * hosts, oversubscribed cores) a leader can still accumulate a
     * fence-amortizing batch; an uncontended committer never waits
     * at all (the window is 0 below two in-flight txns), so the
     * ceiling only bounds tail latency under real concurrency. */
    static constexpr std::uint64_t kAutoMaxWindowNs = 2'000'000;

    /** Arrival gaps above this don't feed the EWMA (an idle pause is
     * not a signal about the arrival rate under load). */
    static constexpr std::uint64_t kAutoMaxGapNs = 10'000'000;

    /** Async completion: the exception_ptr is set when the drain
     * died of a simulated crash. Runs on the drainer thread. */
    using DoneFn = std::function<void(std::exception_ptr)>;

    /** @param device the database device; @param window_ns how long
     * a leader waits for stragglers (0 = always eager; kAutoWindow =
     * auto-tune). */
    CommitCoordinator(NvmDevice *device, std::uint64_t window_ns);
    ~CommitCoordinator();

    CommitCoordinator(const CommitCoordinator &) = delete;
    CommitCoordinator &operator=(const CommitCoordinator &) = delete;

    /** Commit @p shard's open transaction; returns (or throws) once
     * its commit record is durable. */
    void commit(WalShard &shard);

    /** Park @p shard's open transaction for a batched drain and
     * return immediately; @p done fires once its commit record is
     * durable (see DoneFn). The caller must not touch the shard
     * until then. */
    void commitAsync(WalShard &shard, DoneFn done);

    /** @name 2PC member entries (never hold a batch open) */
    /// @{
    /** Queue @p shard's prepare: its new images and its prepared
     * mark under @p txn_id ride the next batch's first fence; @p done
     * fires once both are durable. */
    void prepareAsync(WalShard &shard, Word txn_id, DoneFn done);

    /** Queue @p shard's finish: the retire record of its prepared
     * transaction rides the next batch's second fence; @p done fires
     * once it is durable. */
    void finishAsync(WalShard &shard, DoneFn done);
    /// @}

    /** In-flight transaction accounting: a leader stops waiting as
     * soon as every in-flight transaction has joined its batch. */
    void txnBegan() { inflight_.fetch_add(1, std::memory_order_relaxed); }
    void txnEnded();

    unsigned
    inflight() const
    {
        return inflight_.load(std::memory_order_relaxed);
    }

    void setWindowNs(std::uint64_t ns)
    {
        windowNs_.store(ns, std::memory_order_relaxed);
    }

    std::uint64_t windowNs() const
    {
        return windowNs_.load(std::memory_order_relaxed);
    }

    /** The window a leader would use right now: the configured
     * window, or the auto-derived one (0 — eager — when at most one
     * transaction is in flight or no drain was measured yet). */
    std::uint64_t effectiveWindowNs();

    /** Drop volatile batching state after a simulated power failure
     * (callers are quiesced by contract; parked async commits are
     * dropped without their callbacks — their sessions died with the
     * power). */
    void resetAfterCrash();

    struct Stats
    {
        /** Drain cycles (incl. eager) that made a transaction
         * durable; a cycle of only 2PC finishes retires transactions
         * an earlier cycle already counted. */
        std::uint64_t batches = 0;
        /** Member transactions made durable: commit entries plus 2PC
         * prepares. */
        std::uint64_t txns = 0;
        std::uint64_t maxBatch = 0; ///< most txns in one drain
        /** Leader windows that expired before every in-flight txn
         * joined — a high ratio means the window is too short or
         * in-flight txns are long. */
        std::uint64_t windowTimeouts = 0;
        /** Last auto-derived window (0 unless auto mode engaged). */
        std::uint64_t autoWindowNs = 0;
    };

    Stats stats() const;

  private:
    enum class EntryKind : std::uint8_t
    {
        kCommit,
        kPrepare,
        kFinish,
    };

    struct Waiter
    {
        EntryKind kind = EntryKind::kCommit;
        WalShard *shard = nullptr;
        Word txnId = 0; ///< kPrepare: the 2PC transaction id
        bool done = false;
        std::exception_ptr err;
        /** Non-null for async entries (heap-owned; the leader that
         * drains the batch deletes them after firing the callback). */
        DoneFn asyncDone;
    };

    /** Feed the arrival-gap EWMA (auto window). */
    void noteArrival();

    /** Feed the drain-time EWMA (auto window cap). */
    void noteDrain(std::uint64_t ns);

    /** Queue an async entry and wake the drainer. */
    void enqueue(EntryKind kind, WalShard &shard, Word txn_id,
                 DoneFn done);

    /** Take leadership, wait out the window, drain the batch and
     * deliver results. @p lock is held on entry and exit. */
    void leadBatch(std::unique_lock<std::mutex> &lock);

    /** Standing leader for async entries. */
    void drainerLoop();

    /** Stage+fence the whole batch; runs on the drain thread. */
    void drainBatch(const std::vector<Waiter *> &batch);

    /** drainBatch, then the post-drain accounting: the drain-time
     * EWMA (on success) and the batch stats (always). Returns the
     * drain's exception instead of throwing it. */
    std::exception_ptr drainCounted(const std::vector<Waiter *> &batch);

    /** Stage one entry's first-fence part (images, prepared mark). */
    static void stageFirst(const Waiter &w);

    /** Racy-max update for the maxBatch gauge. */
    void bumpMaxBatch(std::uint64_t n);

    NvmDevice *device_;
    std::atomic<std::uint64_t> windowNs_;
    std::atomic<unsigned> inflight_{0};

    /** Arrival-rate observation for the auto window. Racy-relaxed on
     * purpose: the EWMA is a tuning signal, not a correctness
     * input. */
    std::atomic<std::uint64_t> lastArrivalNs_{0};
    std::atomic<std::uint64_t> ewmaGapNs_{0};
    std::atomic<std::uint64_t> drainNs_{0};

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Waiter *> pending_;
    /** Prepare/finish entries in pending_: drain without a window. */
    unsigned pending2pc_ = 0;
    bool leaderActive_ = false;
    bool stop_ = false;
    /** True while a leader sits in its batch window, so txnEnded()
     * knows to wake it (its target may just have shrunk). */
    std::atomic<bool> leaderWaiting_{false};

    /** Lazily spawned by the first commitAsync (guarded by mu_). */
    std::thread drainer_;
    bool drainerStarted_ = false;

    WorkerPool pool_;

    std::atomic<std::uint64_t> statBatches_{0};
    std::atomic<std::uint64_t> statTxns_{0};
    std::atomic<std::uint64_t> statMaxBatch_{0};
    std::atomic<std::uint64_t> statWindowTimeouts_{0};
    std::atomic<std::uint64_t> statAutoWindow_{0};
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_COMMIT_COORDINATOR_HH
