// Minimal fixed-size worker pool for the batch simulation layer.
//
// One queue, N workers, blocking parallel_for. Deliberately small: the batch
// layer's unit of work is a whole vector-stream shard (thousands of executor
// passes), so per-task overhead is irrelevant and work stealing would buy
// nothing. `parallel_for` is a barrier — it returns only when every index
// has been processed — and rethrows the first exception a body raised.
//
// Idle workers are handed work most-recently-idle first, and go idle under
// the lock that settles their last parallel_for index, so back-to-back
// loops run on the same warm threads (tests/batch_runner_test.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace udsim {

class ThreadPool {
 public:
  /// What shutdown() does with tasks that were queued but never started.
  enum class ShutdownMode : std::uint8_t {
    Drain,   ///< run every pending task to completion, then join
    Cancel,  ///< discard pending tasks (their captured state is destroyed
             ///  on the shutdown caller's thread), join after in-flight
             ///  tasks finish
  };

  /// Spawn `num_threads` workers (0 = all hardware threads).
  explicit ThreadPool(unsigned num_threads = 0);

  /// shutdown(Drain): pending tasks still run, then workers join. The
  /// destructor never abandons a queued task — a task either executes or
  /// was already discarded by an explicit shutdown(Cancel) — so captured
  /// state is always destroyed deterministically, never leaked into a
  /// detached thread (tests/thread_pool_test.cpp destructs under load with
  /// TSAN to hold this).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on first use with hardware_threads()
  /// workers. A body running on it must never start another parallel_for
  /// on it: with every worker inside such a body, the inner loop's tasks
  /// would wait forever.
  [[nodiscard]] static ThreadPool& shared();

  /// Stop accepting work and join the workers. Idempotent; after the first
  /// call submit() throws and parallel_for() of n > 0 throws. With Cancel,
  /// queued tasks (submitted while every worker was busy) are destroyed
  /// without running and the number discarded is returned; with Drain
  /// every queued task runs first.
  /// Cancel must not race a parallel_for blocked on this pool (its barrier
  /// tasks would be discarded and the barrier never settle) — Drain, the
  /// destructor's mode, is always safe.
  std::size_t shutdown(ShutdownMode mode = ShutdownMode::Drain);

  /// True once shutdown() has begun (or the destructor is running).
  [[nodiscard]] bool stopped() const noexcept;

  /// Number of worker threads.
  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue one task for any worker. Throws std::runtime_error once the
  /// pool is stopped — a silently enqueued-but-never-run task would hold
  /// its captured state (promises, buffers) forever, which is exactly the
  /// lost-request failure mode the service layer must exclude.
  void submit(std::function<void()> task);

  /// Run body(0) … body(n-1) across the pool and block until all complete.
  /// Indices are claimed in order but may execute concurrently; with a
  /// single worker (or n == 1) the loop runs inline on the calling thread,
  /// giving an exact single-threaded execution for fallback paths.
  ///
  /// Fail-fast guarantee: after the first body throws, indices that have
  /// not yet started are skipped rather than executed; the call still
  /// blocks until every index has been settled, then rethrows the first
  /// exception. Bodies already running when the failure happens run to
  /// completion (there is no preemption). The inline single-thread path
  /// fail-fasts trivially by propagating the throw immediately.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency(), never less than 1.
  [[nodiscard]] static unsigned hardware_threads() noexcept;

 private:
  struct Batch;
  struct Task {
    std::function<void()> fn;
    Batch* batch = nullptr;  ///< the parallel_for this index belongs to
  };
  struct Worker {
    std::thread thread;
    std::condition_variable wake;
    std::optional<Task> handoff;  ///< set by dispatch_locked while idle
  };

  /// Hand `task` to the most recently idle worker, or queue it when every
  /// worker is busy (so a non-empty queue implies no idle worker).
  void dispatch_locked(Task task);
  /// Run `task` with `lock` (on mu_) released, then settle its barrier.
  void run_locked(Task& task, std::unique_lock<std::mutex>& lock);
  void worker_loop(std::size_t self);

  mutable std::mutex mu_;
  std::deque<Task> queue_;
  std::vector<std::size_t> idle_;  ///< idle workers, most recent last
  std::vector<std::unique_ptr<Worker>> workers_;
  bool stop_ = false;
  bool joined_ = false;
};

}  // namespace udsim
