#include "core/thread_pool.h"

#include <exception>
#include <stdexcept>
#include <utility>

namespace udsim {

/// Barrier of one parallel_for call, guarded by mu_.
struct ThreadPool::Batch {
  std::size_t remaining;
  std::exception_ptr error{};  ///< first failure
  std::condition_variable done{};
};

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(hardware_threads());
  return pool;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = hardware_threads();
  // All Workers exist, idle, before any thread indexes workers_.
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    idle_.push_back(num_threads - 1 - i);  // worker 0 is handed work first
  }
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(ShutdownMode::Drain); }

std::size_t ThreadPool::shutdown(ShutdownMode mode) {
  std::deque<Task> discarded;
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    if (mode == ShutdownMode::Cancel) discarded.swap(queue_);
    for (auto& w : workers_) w->wake.notify_one();
  }
  // Cancelled tasks are destroyed here, outside the lock and on the
  // caller's thread — deterministic destruction order for captured state
  // (a promise in a discarded task is abandoned *now*, not whenever a
  // worker happens to die).
  const std::size_t cancelled = discarded.size();
  discarded.clear();
  {
    std::lock_guard lock(mu_);
    if (joined_) return cancelled;
    joined_ = true;
  }
  for (auto& w : workers_) w->thread.join();
  return cancelled;
}

bool ThreadPool::stopped() const noexcept {
  std::lock_guard lock(mu_);
  return stop_;
}

void ThreadPool::dispatch_locked(Task task) {
  if (idle_.empty()) {
    queue_.push_back(std::move(task));
    return;
  }
  Worker& w = *workers_[idle_.back()];
  idle_.pop_back();
  w.handoff = std::move(task);
  w.wake.notify_one();
}

void ThreadPool::submit(std::function<void()> task) {
  std::lock_guard lock(mu_);
  if (stop_) {
    throw std::runtime_error(
        "ThreadPool::submit: pool is stopped; the task would never run");
  }
  dispatch_locked(Task{std::move(task)});
}

void ThreadPool::run_locked(Task& task, std::unique_lock<std::mutex>& lock) {
  Batch* const b = task.batch;
  std::exception_ptr error;
  // Fail-fast: once any body has thrown, indices not yet started are
  // skipped (they still settle the barrier).
  if (b == nullptr || !b->error) {
    lock.unlock();
    try {
      task.fn();
    } catch (...) {
      if (b == nullptr) throw;  // a submitted task escaping: as a raw thread
      error = std::current_exception();
    }
    lock.lock();
  }
  if (b == nullptr) return;
  if (!b->error) b->error = error;
  if (--b->remaining == 0) b->done.notify_all();
}

void ThreadPool::worker_loop(std::size_t self) {
  Worker& w = *workers_[self];
  std::unique_lock lock(mu_);
  for (;;) {
    w.wake.wait(lock, [&] { return w.handoff.has_value() || stop_; });
    // Stopped while idle: nothing is queued (see dispatch_locked).
    if (!w.handoff) return;
    Task task = std::move(*w.handoff);
    w.handoff.reset();
    for (;;) {
      run_locked(task, lock);
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Still under the lock that settled the last barrier index, so a
    // parallel_for caller wakes only after this worker is idle again.
    idle_.push_back(self);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::unique_lock lock(mu_);
  if (stop_) {
    throw std::runtime_error(
        "ThreadPool::parallel_for: pool is stopped; the loop would never run");
  }
  if (threads() <= 1 || n == 1) {
    lock.unlock();
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // The barrier lives on this frame: workers touch it only until the last
  // index settles, under mu_, before this call can wake.
  Batch batch{n};
  for (std::size_t i = 0; i < n; ++i) {
    dispatch_locked(Task{[&body, i] { body(i); }, &batch});
  }
  batch.done.wait(lock, [&] { return batch.remaining == 0; });
  lock.unlock();
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace udsim
