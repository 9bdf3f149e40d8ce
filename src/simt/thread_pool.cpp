#include "src/simt/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace nestpar::simt {

namespace {

/// How long an idle worker spins before it parks.
constexpr std::chrono::microseconds kIdleSpin{1000};
/// Pause-spins a waiter makes before it starts yielding its core.
constexpr int kWaitSpins = 4096;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int extra = std::max(0, threads - 1);
  workers_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(park_mu_);
    stop_.store(true);
  }
  park_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::lock_queue() {
  while (queue_locked_.exchange(true, std::memory_order_acquire)) {
    while (queue_locked_.load(std::memory_order_relaxed)) cpu_relax();
  }
}

void ThreadPool::submit(Task& t) {
  t.done_.store(false, std::memory_order_relaxed);
  t.error_ = nullptr;
  lock_queue();
  queue_.push_back(&t);
  queued_.store(queue_.size());
  unlock_queue();
  // Pairs with the parked_ increment in worker_main: either the worker sees
  // queued_ > 0 before it sleeps, or this sees it parked and wakes it.
  if (parked_.load() > 0) {
    std::lock_guard<std::mutex> lk(park_mu_);
    park_cv_.notify_one();
  }
}

ThreadPool::Task* ThreadPool::try_pop() {
  if (queued_.load(std::memory_order_relaxed) == 0) return nullptr;
  lock_queue();
  Task* t = nullptr;
  if (!queue_.empty()) {
    t = queue_.front();
    queue_.pop_front();
    queued_.store(queue_.size());
  }
  unlock_queue();
  return t;
}

void ThreadPool::execute(Task& t) {
  try {
    t.run();
  } catch (...) {
    t.error_ = std::current_exception();
  }
  t.done_.store(true, std::memory_order_release);
}

void ThreadPool::worker_main() {
  using Clock = std::chrono::steady_clock;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (Task* t = try_pop()) {
      execute(*t);
      continue;
    }
    const Clock::time_point park_at = Clock::now() + kIdleSpin;
    bool idle = true;
    while (idle && Clock::now() < park_at) {
      for (int i = 0; i < 64 && queued_.load(std::memory_order_relaxed) == 0;
           ++i) {
        cpu_relax();
      }
      idle = queued_.load(std::memory_order_relaxed) == 0;
    }
    if (!idle) continue;
    std::unique_lock<std::mutex> lk(park_mu_);
    parked_.fetch_add(1);
    park_cv_.wait(lk, [&] { return stop_.load() || queued_.load() > 0; });
    parked_.fetch_sub(1);
  }
}

void ThreadPool::wait(Task& t) {
  // Yield once spinning has gone on for a while, in case the thread running
  // `t` lost its core.
  for (int spins = 0; !t.done_.load(std::memory_order_acquire);) {
    if (Task* next = try_pop()) {
      execute(*next);
      spins = 0;
    } else if (++spins < kWaitSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  if (t.error_) std::rethrow_exception(std::exchange(t.error_, nullptr));
}

}  // namespace nestpar::simt
