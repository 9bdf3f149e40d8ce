#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace nestpar::simt {

/// Persistent host thread pool used by the parallel functional engine.
///
/// The only primitive is the asynchronous task: `submit(t)` queues a Task,
/// `wait(t)` returns once it has run. A waiting thread does not idle while
/// the queue holds work — it runs queued tasks (its own first, since the
/// queue is FIFO) until `t` is done — so a pool of N threads is N-1 workers
/// plus whichever thread waits. Tasks must not submit or wait themselves.
///
/// The engine's tasks take microseconds, and on a virtual machine waking a
/// parked thread costs tens of microseconds. So the queue is guarded by a
/// spin lock rather than a mutex a loser would sleep on, waiters spin, and
/// an idle worker spins for about a millisecond before it parks.
class ThreadPool {
 public:
  /// A unit of work. The submitter owns it and keeps it alive, unmodified,
  /// until `wait` on it has returned; an exception `run` throws is captured
  /// and rethrown by that `wait`.
  class Task {
   public:
    virtual void run() = 0;

   protected:
    Task() = default;
    ~Task() = default;
    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

   private:
    friend class ThreadPool;
    std::atomic<bool> done_{true};
    std::exception_ptr error_;  ///< Written before done_ is released.
  };

  /// Spawns `threads - 1` workers; the thread that waits is the last one.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution threads, including the waiting caller.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  void submit(Task& t);
  void wait(Task& t);

 private:
  void worker_main();
  /// Pop the oldest queued task, or nullptr when the queue is empty.
  Task* try_pop();
  static void execute(Task& t);

  void lock_queue();
  void unlock_queue() { queue_locked_.store(false, std::memory_order_release); }

  std::atomic<bool> queue_locked_{false};
  std::deque<Task*> queue_;            ///< Guarded by queue_locked_.
  std::atomic<std::size_t> queued_{0};  ///< queue_.size(), read unlocked.

  std::mutex park_mu_;  ///< Only for parking idle workers.
  std::condition_variable park_cv_;
  std::atomic<int> parked_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;  ///< Last: joined before the rest dies.
};

}  // namespace nestpar::simt
