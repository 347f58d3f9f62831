#include "util/worker_pool.hh"

#include <utility>

namespace espresso {

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkerPool::run(unsigned n, const std::function<void(unsigned)> &fn)
{
    if (n == 0)
        return;
    {
        std::lock_guard<std::mutex> g(mu_);
        while (threads_.size() + 1 < n) {
            unsigned idx = static_cast<unsigned>(threads_.size()) + 1;
            threads_.emplace_back([this, idx]() { threadMain(idx); });
        }
        fn_ = &fn;
        width_ = n;
        remaining_ = n - 1;
        ++round_;
    }
    if (n > 1)
        workCv_.notify_all();
    runOne(fn, 0);
    std::unique_lock<std::mutex> lock(mu_);
    doneCv_.wait(lock, [this]() { return remaining_ == 0; });
    fn_ = nullptr;
    std::exception_ptr err = std::exchange(err_, nullptr);
    lock.unlock();
    if (err)
        std::rethrow_exception(err);
}

void
WorkerPool::runOne(const std::function<void(unsigned)> &fn, unsigned idx)
{
    try {
        fn(idx);
    } catch (...) {
        std::lock_guard<std::mutex> g(mu_);
        if (!err_)
            err_ = std::current_exception();
    }
}

void
WorkerPool::threadMain(unsigned idx)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        workCv_.wait(lock, [&]() {
            return stop_ || (round_ != seen && idx < width_);
        });
        if (stop_)
            return;
        seen = round_;
        const std::function<void(unsigned)> *fn = fn_;
        lock.unlock();
        runOne(*fn, idx);
        lock.lock();
        if (--remaining_ == 0)
            doneCv_.notify_all();
    }
}

} // namespace espresso
