#pragma once

/// @file
/// Small fixed-size worker pool.
///
/// The pool owns N OS threads that drain a FIFO task queue; submit() returns
/// a future that delivers the task's completion (or rethrows its exception).
/// Consumers that need deterministic work placement — ReplayDriver assigns
/// database groups to pooled replay sessions by a static cost-ordered
/// schedule (core::assign_groups) — submit one long-running task per worker
/// that replays its own list, instead of one task per work item, so the pool
/// stays a dumb, predictable executor rather than a scheduler.
///
/// Destruction drains the queue: every task already submitted runs before the
/// threads join (a submit racing destruction throws instead of being lost).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mystique {

class ThreadPool {
  public:
    /// Spawns @p threads workers (clamped to at least 1).
    /// @param fault_delay_site  optional fault-injection site name
    ///        (common/fault_injection.h) evaluated before each task runs —
    ///        arming it in kDelay mode stalls workers to widen race windows.
    ///        The background() pool registers "pool.background_delay";
    ///        replay pools pass nothing and stay deterministic.
    explicit ThreadPool(std::size_t threads, const char* fault_delay_site = nullptr);

    /// Blocks until every submitted task has run, then joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return threads_.size(); }

    /// Process-wide pool for background work that must not block its
    /// requester — plan-store disk writebacks ride here.  Lazily constructed
    /// (2 threads: enough to overlap serialization with replay, small enough
    /// to never contend with sweep workers).  Its function-local-static
    /// destructor drains the queue at process exit, so fire-and-forget tasks
    /// submitted anywhere before exit still complete.
    static ThreadPool& background();

    /// Enqueues @p fn; the returned future becomes ready when it completes
    /// and rethrows any exception the task threw.  Throws std::runtime_error
    /// if the pool is already shutting down.
    std::future<void> submit(std::function<void()> fn);

  private:
    void worker_loop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::packaged_task<void()>> queue_;
    bool stop_ = false;
    const char* fault_delay_site_ = nullptr;
    std::vector<std::thread> threads_;
};

} // namespace mystique
