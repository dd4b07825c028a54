#include "util/thread_pool.hpp"

#include <chrono>
#include <exception>

#include "util/assert.hpp"

namespace reasched {

ShardedThreadPool::ShardedThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = i;
  }
  // Threads start only once workers_ is complete: every worker scans its
  // siblings' deques, and thread creation orders these writes before it.
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, &w = *worker] { worker_loop(w); });
  }
}

ShardedThreadPool::~ShardedThreadPool() {
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
      worker->stopping = true;
    }
    worker->cv.notify_one();
  }
  for (auto& worker : workers_) worker->thread.join();
}

std::future<void> ShardedThreadPool::submit(std::size_t home,
                                            std::function<void()> fn) {
  RS_REQUIRE(home < workers_.size(),
             "ShardedThreadPool::submit: home worker out of range");
  Worker& worker = *workers_[home];
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> result = task.get_future();
  {
    std::lock_guard lock(worker.mutex);
    worker.tasks.push_back(std::move(task));
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  worker.cv.notify_one();
  // Wake one potential thief (rotating) so an idle sibling can help a
  // backlogged home without a full notify-all herd.
  if (workers_.size() > 1) {
    const std::size_t buddy =
        steal_cursor_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    if (buddy != home) workers_[buddy]->cv.notify_one();
  }
  return result;
}

bool ShardedThreadPool::steal_and_run(std::size_t exclude) {
  if (queued_.load(std::memory_order_relaxed) == 0) return false;
  const std::size_t n = workers_.size();
  const std::size_t start =
      steal_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == exclude) continue;
    Worker& worker = *workers_[victim];
    std::packaged_task<void()> task;
    {
      std::lock_guard lock(worker.mutex);
      if (!worker.tasks.empty()) {
        task = std::move(worker.tasks.back());
        worker.tasks.pop_back();
        queued_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (task.valid()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      task();
      return true;
    }
  }
  return false;
}

bool ShardedThreadPool::try_run_one() { return steal_and_run(workers_.size()); }

void ShardedThreadPool::worker_loop(Worker& worker) {
  // After a fruitless steal scan the queued-count hint may still be
  // nonzero (a sibling claimed the task first), so the next wait uses a
  // timeout instead of the hint to avoid a notify-free spin.
  bool scan_failed = false;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(worker.mutex);
      const auto has_local = [&] {
        return worker.stopping || !worker.tasks.empty();
      };
      if (scan_failed) {
        worker.cv.wait_for(lock, std::chrono::milliseconds(1), has_local);
      } else {
        worker.cv.wait(lock, [&] {
          return has_local() ||
                 queued_.load(std::memory_order_relaxed) > 0;
        });
      }
      if (!worker.tasks.empty()) {
        task = std::move(worker.tasks.front());
        worker.tasks.pop_front();
        queued_.fetch_sub(1, std::memory_order_relaxed);
      } else if (worker.stopping) {
        return;
      }
    }
    if (task.valid()) {
      task();
      scan_failed = false;
      continue;
    }
    scan_failed = !steal_and_run(worker.index);
  }
}

void ShardedThreadPool::run(std::size_t count,
                            const std::function<std::size_t(std::size_t)>& home,
                            const std::function<void(std::size_t)>& task) {
  std::exception_ptr first;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(submit(home(i) % workers_.size(), [&task, i] { task(i); }));
  }
  // The caller lends its cycles instead of idling on the joins.
  for (auto& future : futures) {
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!try_run_one()) future.wait_for(std::chrono::microseconds(50));
    }
    try {
      future.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace reasched
