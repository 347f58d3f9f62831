/**
 * @file
 * A small persistent worker-thread pool for fork/join phases.
 *
 * The parallel GC phases (mark, compact) need "run f(i) on N threads
 * and wait". Spawning fresh std::threads per collection would work,
 * but every short-lived thread permanently registers a per-thread
 * staging shard with each NvmDevice it flushes — a long-lived
 * process collecting periodically would grow that registry without
 * bound. A pool reuses the same threads across collections, bounding
 * shard growth and eliminating per-GC thread-start latency.
 */

#ifndef ESPRESSO_UTIL_WORKER_POOL_HH
#define ESPRESSO_UTIL_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace espresso {

/** Lazily-grown fork/join thread pool. */
class WorkerPool
{
  public:
    WorkerPool() = default;
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run @p fn(0) .. @p fn(n-1) and block until all return. fn(0)
     * runs on the calling thread, the rest on pool threads; the pool
     * grows to n-1 threads on demand and never shrinks. @p fn may
     * throw: run() rethrows the first exception only once every
     * worker has returned, so no worker still touches shared state
     * when the caller unwinds. A throwing worker does not stop its
     * siblings — a caller whose workers wait on each other keeps its
     * own abort flag and sets it before rethrowing. Not reentrant:
     * one run() at a time.
     */
    void run(unsigned n, const std::function<void(unsigned)> &fn);

  private:
    void threadMain(unsigned idx);
    /** Run fn(idx), recording the first exception of the round. */
    void runOne(const std::function<void(unsigned)> &fn, unsigned idx);

    std::mutex mu_;
    std::condition_variable workCv_; ///< workers wait for a round
    std::condition_variable doneCv_; ///< run() waits for completion
    const std::function<void(unsigned)> *fn_ = nullptr;
    /** Round counter; bumped by run(). A worker participates when it
     * has not yet seen the current round and its index is below the
     * round's width. */
    std::uint64_t round_ = 0;
    unsigned width_ = 0;     ///< workers participating this round
    unsigned remaining_ = 0; ///< pool threads still running
    bool stop_ = false;
    std::exception_ptr err_; ///< first exception this round
    std::vector<std::thread> threads_;
};

} // namespace espresso

#endif // ESPRESSO_UTIL_WORKER_POOL_HH
