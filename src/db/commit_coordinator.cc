#include "db/commit_coordinator.hh"

#include <algorithm>
#include <chrono>

#include "db/wal.hh"
#include "nvm/nvm_device.hh"

namespace espresso {
namespace db {

namespace {

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

CommitCoordinator::CommitCoordinator(NvmDevice *device,
                                     std::uint64_t window_ns)
    : device_(device), windowNs_(window_ns)
{}

CommitCoordinator::~CommitCoordinator()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
        cv_.notify_all();
    }
    if (drainer_.joinable())
        drainer_.join();
}

void
CommitCoordinator::bumpMaxBatch(std::uint64_t n)
{
    std::uint64_t cur = statMaxBatch_.load(std::memory_order_relaxed);
    while (cur < n && !statMaxBatch_.compare_exchange_weak(
                          cur, n, std::memory_order_relaxed)) {
    }
}

void
CommitCoordinator::noteArrival()
{
    std::uint64_t now = steadyNowNs();
    std::uint64_t last =
        lastArrivalNs_.exchange(now, std::memory_order_relaxed);
    if (last == 0 || now <= last)
        return;
    std::uint64_t gap = std::min(now - last, kAutoMaxGapNs);
    std::uint64_t e = ewmaGapNs_.load(std::memory_order_relaxed);
    ewmaGapNs_.store(e == 0 ? gap : (e * 7 + gap) / 8,
                     std::memory_order_relaxed);
}

void
CommitCoordinator::noteDrain(std::uint64_t ns)
{
    ns = std::max<std::uint64_t>(ns, 1);
    std::uint64_t e = drainNs_.load(std::memory_order_relaxed);
    drainNs_.store(e == 0 ? ns : (e * 7 + ns) / 8,
                   std::memory_order_relaxed);
}

std::uint64_t
CommitCoordinator::effectiveWindowNs()
{
    std::uint64_t w = windowNs_.load(std::memory_order_relaxed);
    if (w != kAutoWindow)
        return w;
    unsigned infl = inflight_.load(std::memory_order_relaxed);
    if (infl <= 1) {
        // Nobody to coalesce with: degenerate to the eager path so
        // an uncontended committer never waits.
        statAutoWindow_.store(0, std::memory_order_relaxed);
        return 0;
    }
    std::uint64_t gap = ewmaGapNs_.load(std::memory_order_relaxed);
    if (gap == 0)
        return 0;
    // Never wait longer than one drain: a straggler arriving later
    // rides the next batch, which starts once this one is durable.
    std::uint64_t win = std::min(
        {gap * std::min<std::uint64_t>(infl, kMaxBatch),
         kAutoMaxWindowNs, drainNs_.load(std::memory_order_relaxed)});
    statAutoWindow_.store(win, std::memory_order_relaxed);
    return win;
}

void
CommitCoordinator::stageFirst(const Waiter &w)
{
    switch (w.kind) {
    case EntryKind::kCommit:
        w.shard->stageCommit();
        break;
    case EntryKind::kPrepare:
        w.shard->stagePrepare(w.txnId);
        break;
    case EntryKind::kFinish:
        break;
    }
}

void
CommitCoordinator::drainBatch(const std::vector<Waiter *> &batch)
{
    // The fan-out only pays when the workers' fences actually overlap.
    // On a host with fewer cores than drain workers they serialize
    // instead, so the "parallel" path just multiplies the fence count
    // (kDrainWorkers + 1 per batch instead of 2) — inline staging is
    // strictly better there.
    static const bool pool_pays =
        std::thread::hardware_concurrency() >= kDrainWorkers;
    bool first = false, second = false;
    for (const Waiter *w : batch) {
        first |= w->kind != EntryKind::kFinish;
        second |= w->kind != EntryKind::kPrepare;
    }
    if (first && pool_pays && batch.size() >= kParallelDrainMin) {
        // Wide burst: fan the first stage out — each worker stages
        // its slice of shards and fences them, in parallel. The pool
        // re-raises a simulated crash once every worker has returned.
        unsigned n = std::min<unsigned>(
            kDrainWorkers, static_cast<unsigned>(batch.size()));
        pool_.run(n, [&](unsigned w) {
            for (std::size_t i = w; i < batch.size(); i += n)
                stageFirst(*batch[i]);
            device_->fence();
        });
    } else if (first) {
        for (const Waiter *w : batch)
            stageFirst(*w);
        device_->fence();
    }
    // Commit records and 2PC finishes: one header line per shard.
    if (second) {
        for (const Waiter *w : batch)
            if (w->kind != EntryKind::kPrepare)
                w->shard->stageRetire();
        device_->fence();
    }
}

std::exception_ptr
CommitCoordinator::drainCounted(const std::vector<Waiter *> &batch)
{
    std::exception_ptr err;
    try {
        std::uint64_t t0 = steadyNowNs();
        drainBatch(batch);
        noteDrain(steadyNowNs() - t0);
    } catch (...) {
        err = std::current_exception();
    }
    std::uint64_t txns = 0;
    for (const Waiter *w : batch)
        txns += w->kind != EntryKind::kFinish ? 1 : 0;
    if (txns != 0) {
        statBatches_.fetch_add(1, std::memory_order_relaxed);
        statTxns_.fetch_add(txns, std::memory_order_relaxed);
        bumpMaxBatch(txns);
    }
    return err;
}

void
CommitCoordinator::leadBatch(std::unique_lock<std::mutex> &lock)
{
    leaderActive_ = true;
    std::uint64_t window = pending2pc_ != 0 ? 0 : effectiveWindowNs();
    if (window > 0) {
        leaderWaiting_.store(true, std::memory_order_release);
        auto now = std::chrono::steady_clock::now();
        auto deadline = now + std::chrono::nanoseconds(window);
        // A straggler that lost the CPU shouldn't cost the batch the
        // whole window: once arrivals go quiet, drain what we have.
        // "Quiet" is measured against the observed arrival cadence —
        // several expected gaps, not a fixed fraction of the window —
        // so slow-arriving pipelines aren't truncated to tiny
        // batches on slow hosts.
        auto quiet = std::chrono::nanoseconds(std::max<std::uint64_t>(
            {window / 4,
             4 * ewmaGapNs_.load(std::memory_order_relaxed), 1000}));
        std::size_t last_size = pending_.size();
        auto last_arrival = now;
        for (;;) {
            unsigned target = std::min(
                kMaxBatch, std::max(1u, inflight_.load(
                                            std::memory_order_relaxed)));
            // Sync committers all park before committing, so once
            // every in-flight txn has joined there is nothing to
            // wait for. Async entries are different: their pipelined
            // successors don't exist yet (the connection's next
            // frame begins only after this one parked), they block
            // no caller, and the arrival EWMA says more are coming —
            // so ride the window instead of draining at the
            // instantaneous in-flight count.
            for (Waiter *w : pending_)
                if (w->asyncDone) {
                    target = kMaxBatch;
                    break;
                }
            // A 2PC entry never waits: its chain holds row locks and
            // WAL tokens on other members too.
            if (pending_.size() >= target || pending2pc_ != 0)
                break;
            if (pending_.size() != last_size) {
                last_size = pending_.size();
                last_arrival = std::chrono::steady_clock::now();
            }
            auto slice = std::min(deadline, last_arrival + quiet);
            if (cv_.wait_until(lock, slice) ==
                std::cv_status::timeout) {
                now = std::chrono::steady_clock::now();
                if (now >= deadline) {
                    statWindowTimeouts_.fetch_add(
                        1, std::memory_order_relaxed);
                    break;
                }
                if (pending_.size() == last_size)
                    break; // quiescent: no arrival for a quiet period
            }
        }
        leaderWaiting_.store(false, std::memory_order_release);
    }

    std::vector<Waiter *> batch;
    batch.swap(pending_);
    pending2pc_ = 0;
    if (batch.empty()) {
        leaderActive_ = false;
        cv_.notify_all();
        return;
    }
    lock.unlock();

    std::exception_ptr err = drainCounted(batch);
    std::vector<Waiter *> asyncs;
    lock.lock();
    for (Waiter *w : batch) {
        if (w->asyncDone) {
            asyncs.push_back(w);
        } else {
            w->err = err;
            w->done = true;
        }
    }
    leaderActive_ = false;
    cv_.notify_all();
    lock.unlock();

    // Callbacks run off the coordinator mutex so they may re-enter
    // (begin the next pipelined transaction, even commit it, or queue
    // the next step of a 2PC chain here or on another member).
    for (Waiter *w : asyncs) {
        w->asyncDone(err);
        delete w;
    }
    lock.lock();
}

void
CommitCoordinator::commit(WalShard &shard)
{
    noteArrival();
    Waiter self;
    self.shard = &shard;
    if (effectiveWindowNs() == 0) {
        // Eager: a batch of one, drained on the caller's thread. It
        // neither waits for nor joins another thread's batch.
        if (std::exception_ptr err = drainCounted({&self}))
            std::rethrow_exception(err);
        return;
    }

    std::unique_lock<std::mutex> lock(mu_);
    pending_.push_back(&self);
    cv_.notify_all();

    // Follow until done, or claim leadership of the next batch.
    for (;;) {
        if (self.done) {
            if (self.err)
                std::rethrow_exception(self.err);
            return;
        }
        if (!leaderActive_) {
            leadBatch(lock);
            continue;
        }
        cv_.wait(lock);
    }
}

void
CommitCoordinator::commitAsync(WalShard &shard, DoneFn done)
{
    noteArrival();
    enqueue(EntryKind::kCommit, shard, 0, std::move(done));
}

void
CommitCoordinator::prepareAsync(WalShard &shard, Word txn_id,
                                DoneFn done)
{
    enqueue(EntryKind::kPrepare, shard, txn_id, std::move(done));
}

void
CommitCoordinator::finishAsync(WalShard &shard, DoneFn done)
{
    enqueue(EntryKind::kFinish, shard, 0, std::move(done));
}

void
CommitCoordinator::enqueue(EntryKind kind, WalShard &shard, Word txn_id,
                           DoneFn done)
{
    Waiter *w = new Waiter;
    w->kind = kind;
    w->shard = &shard;
    w->txnId = txn_id;
    w->asyncDone = std::move(done);

    std::lock_guard<std::mutex> g(mu_);
    if (!drainerStarted_) {
        drainerStarted_ = true;
        drainer_ = std::thread([this] { drainerLoop(); });
    }
    if (kind != EntryKind::kCommit)
        ++pending2pc_;
    pending_.push_back(w);
    cv_.notify_all();
}

void
CommitCoordinator::drainerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        if (pending_.empty() || leaderActive_) {
            cv_.wait(lock);
            continue;
        }
        // Even with a zero window this drains whatever accumulated
        // while the previous batch fenced — opportunistic batching
        // for pipelined async commits in eager mode.
        leadBatch(lock);
    }
}

void
CommitCoordinator::txnEnded()
{
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    // A leader waiting for "every in-flight txn" may be waiting for
    // this one; wake it so it re-derives its shrunken target. The
    // lock makes the wakeup race-free; it is only taken while a
    // leader actually sits in its window.
    if (leaderWaiting_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> g(mu_);
        cv_.notify_all();
    }
}

void
CommitCoordinator::resetAfterCrash()
{
    std::lock_guard<std::mutex> g(mu_);
    for (Waiter *w : pending_)
        if (w->asyncDone)
            delete w; // session died with the power; no callback
    pending_.clear();
    pending2pc_ = 0;
    leaderActive_ = false;
    inflight_.store(0, std::memory_order_relaxed);
    lastArrivalNs_.store(0, std::memory_order_relaxed);
    ewmaGapNs_.store(0, std::memory_order_relaxed);
    drainNs_.store(0, std::memory_order_relaxed);
}

CommitCoordinator::Stats
CommitCoordinator::stats() const
{
    Stats s;
    s.batches = statBatches_.load(std::memory_order_relaxed);
    s.txns = statTxns_.load(std::memory_order_relaxed);
    s.maxBatch = statMaxBatch_.load(std::memory_order_relaxed);
    s.windowTimeouts =
        statWindowTimeouts_.load(std::memory_order_relaxed);
    s.autoWindowNs = statAutoWindow_.load(std::memory_order_relaxed);
    return s;
}

} // namespace db
} // namespace espresso
