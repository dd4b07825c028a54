// Fixed-size work-stealing thread pool.
//
// ShardedThreadPool gives each worker one task deque. A task's home worker
// is only a cache preference: the home pops its deque's front (submission
// order), while idle siblings — and a waiting caller, via try_run_one() —
// steal from a backlogged worker's back end, so a hotspot shard under
// skewed machine→shard placement cannot serialize a whole batch
// (DESIGN.md §11). run() is the one fan-out built on it: the
// sharded scheduling service (src/service/) runs its per-stripe plan and
// per-machine apply units through it, and sim/sweep.cpp its independent
// replays. The pool gives no thread affinity; callers that need a unit of
// state touched by one thread at a time make that state the unit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace reasched {

/// Pool of `workers` threads with per-worker stealable deques. `workers`
/// may be zero: run() then executes everything inline on the caller (the
/// single-shard service and a one-thread sweep run that way).
class ShardedThreadPool {
 public:
  explicit ShardedThreadPool(std::size_t workers);
  ~ShardedThreadPool();

  ShardedThreadPool(const ShardedThreadPool&) = delete;
  ShardedThreadPool& operator=(const ShardedThreadPool&) = delete;

  /// Runs task(i) for every i in [0, count) and returns once all have run.
  /// Task i is homed on worker home(i) % size(); each runs exactly once, on
  /// whichever thread claims it, and the caller runs queued tasks itself
  /// while it waits. With zero workers the tasks run inline in index
  /// order. If tasks throw, the lowest-indexed task's exception is rethrown
  /// after every task has finished.
  void run(std::size_t count, const std::function<std::size_t(std::size_t)>& home,
           const std::function<void(std::size_t)>& task);

  /// Enqueues a task with home worker `home` (< size()): the home
  /// worker prefers it (front of its deque, submission order), but any idle
  /// worker — or the caller, via try_run_one() — may take it from the
  /// back.
  std::future<void> submit(std::size_t home, std::function<void()> fn);

  /// Runs one queued task on the calling thread, if any is queued anywhere.
  /// Returns whether a task ran.
  bool try_run_one();

  /// Tasks executed by a thread other than their home worker
  /// (process-lifetime, monotone; inline runs of a zero-worker pool do not
  /// count).
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    // Owner pops the front (submission order); thieves pop the back.
    std::deque<std::packaged_task<void()>> tasks;
    bool stopping = false;
    std::size_t index = 0;  // position in workers_
  };

  void worker_loop(Worker& worker);
  /// Steals and runs one task from any worker except `exclude`
  /// (pass size() to scan all). Returns whether a task ran.
  bool steal_and_run(std::size_t exclude);

  // unique_ptr: Worker holds a mutex/cv and must not move when the vector
  // is built.
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Total queued tasks — a wake hint for idle workers, exact only under
  /// the per-worker locks.
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::size_t> steal_cursor_{0};  // scan start + victim rotation
};

}  // namespace reasched
