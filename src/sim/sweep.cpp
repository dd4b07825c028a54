#include "sim/sweep.hpp"

#include <algorithm>
#include <thread>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace reasched {

std::vector<SimReport> replay_sweep(const std::vector<SweepJob>& jobs,
                                    unsigned threads) {
  for (const auto& job : jobs) {
    RS_REQUIRE(job.make_scheduler != nullptr && job.trace != nullptr,
               "replay_sweep: incomplete job");
  }
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<SimReport> reports(jobs.size());
  // The calling thread is one of the `threads`: it runs jobs while it waits.
  ShardedThreadPool pool(threads - 1);
  pool.run(
      jobs.size(), [](std::size_t index) { return index; },
      [&](std::size_t index) {
        const SweepJob& job = jobs[index];
        const auto scheduler = job.make_scheduler();
        reports[index] = replay_trace(*scheduler, *job.trace, job.options);
      });
  return reports;
}

}  // namespace reasched
