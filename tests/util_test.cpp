#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace reasched {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(u64{1} << 62));
  EXPECT_FALSE(is_pow2((u64{1} << 62) + 1));
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(255), 7u);
  EXPECT_EQ(floor_log2(256), 8u);
  EXPECT_EQ(floor_log2(~u64{0}), 63u);
  EXPECT_THROW(floor_log2(0), ContractViolation);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bits, AlignDownHandlesNegatives) {
  EXPECT_EQ(align_down(0, 8), 0);
  EXPECT_EQ(align_down(7, 8), 0);
  EXPECT_EQ(align_down(8, 8), 8);
  EXPECT_EQ(align_down(-1, 8), -8);
  EXPECT_EQ(align_down(-8, 8), -8);
  EXPECT_EQ(align_down(-9, 8), -16);
}

TEST(Bits, AlignUp) {
  EXPECT_EQ(align_up(0, 8), 0);
  EXPECT_EQ(align_up(1, 8), 8);
  EXPECT_EQ(align_up(8, 8), 8);
  EXPECT_EQ(align_up(-1, 8), 0);
  EXPECT_EQ(align_up(-9, 8), -8);
}

TEST(Bits, LogStar) {
  EXPECT_EQ(log_star(1), 0u);
  EXPECT_EQ(log_star(2), 1u);
  EXPECT_EQ(log_star(4), 2u);
  EXPECT_EQ(log_star(16), 3u);
  EXPECT_EQ(log_star(65536), 4u);
  // 2^65536 is unrepresentable, so every u64 has log* <= 5.
  EXPECT_LE(log_star(~u64{0}), 5u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, LogUniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.log_uniform(16, 4096);
    EXPECT_GE(v, 16u);
    EXPECT_LE(v, 4096u);
  }
}

TEST(Rng, Uniform01InHalfOpenUnit) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.7;
    all.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(IntHistogram, PercentilesExact) {
  IntHistogram hist;
  for (std::uint64_t v = 1; v <= 100; ++v) hist.add(v);
  EXPECT_EQ(hist.percentile(0.5), 50u);
  EXPECT_EQ(hist.percentile(0.99), 99u);
  EXPECT_EQ(hist.percentile(1.0), 100u);
  EXPECT_EQ(hist.max_value(), 100u);
  EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
}

TEST(IntHistogram, MergeAddsCounts) {
  IntHistogram a;
  IntHistogram b;
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count_of(2), 2u);
}

TEST(Table, RendersAlignedColumns) {
  Table table("demo");
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table table("demo");
  table.set_header({"a", "b"});
  table.add_row({"1", "2"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowArityMismatchRejected) {
  Table table("demo");
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
}

TEST(ShardedThreadPool, RunRunsAllTasks) {
  ShardedThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.run(
      100, [](std::size_t i) { return i; }, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ShardedThreadPool, RunWithZeroWorkersRunsInlineInIndexOrder) {
  ShardedThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool off_caller = false;
  pool.run(
      16, [](std::size_t i) { return i; },
      [&](std::size_t i) {
        order.push_back(i);
        if (std::this_thread::get_id() != caller) off_caller = true;
      });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
  EXPECT_FALSE(off_caller);
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(ShardedThreadPool, RunRethrowsOnlyAfterEveryTaskRan) {
  for (const std::size_t workers : {0u, 1u, 3u}) {
    ShardedThreadPool pool(workers);
    std::atomic<int> finished{0};
    try {
      pool.run(
          32, [](std::size_t i) { return i; },
          [&](std::size_t i) {
            if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            ++finished;
          });
      ADD_FAILURE() << "run did not rethrow (" << workers << " workers)";
    } catch (const std::runtime_error& error) {
      // The lowest-indexed failure wins, and no task is still running.
      EXPECT_STREQ(error.what(), "3") << workers << " workers";
      EXPECT_EQ(finished.load(), 30) << workers << " workers";
    }
  }
}

TEST(ShardedThreadPool, ZeroWorkersIsValid) {
  ShardedThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_THROW(pool.submit(0, [] {}), ContractViolation);
}

TEST(ShardedThreadPool, StealableTasksAllRunExactlyOnce) {
  ShardedThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  // Everything homed on worker 0: completion of all 64 with a nonzero
  // steals() would prove migration, but even without steals the contract
  // is exactly-once execution.
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit(0, [&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

/// A pool task that signals when it starts and then holds its thread
/// until released — occupies exactly one pool thread.
struct Blocker {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};

  std::function<void()> task() {
    return [this] {
      started.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    };
  }
  void wait_started() const {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  }
};

TEST(ShardedThreadPool, IdleWorkersStealFromALoadedHome) {
  ShardedThreadPool pool(4);
  // Occupy worker 0 with a blocker homed there. An idle sibling may steal
  // the blocker before worker 0 wakes (steals() then moves); retry until
  // the home worker itself is the one held.
  auto blocker = std::make_unique<Blocker>();
  std::future<void> held;
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 100) << "blocker never ran on its home worker";
    const std::uint64_t before = pool.steals();
    held = pool.submit(0, blocker->task());
    blocker->wait_started();
    if (pool.steals() == before) break;
    blocker->release.store(true, std::memory_order_release);
    held.get();
    blocker = std::make_unique<Blocker>();
  }
  const std::uint64_t steals_before = pool.steals();

  // The home worker's backlog sits behind the blocker; the other
  // three workers are idle and must drain it — the futures cannot
  // complete while worker 0 is held otherwise, so completion is the proof.
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit(0, [&counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++counter;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 32);
  EXPECT_EQ(pool.steals() - steals_before, 32u);
  blocker->release.store(true, std::memory_order_release);
  held.get();
}

TEST(ShardedThreadPool, CallerCanRunStealableWork) {
  ShardedThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  // Hold the only worker so the caller is the sole source of progress.
  Blocker blocker;
  auto held = pool.submit(0, blocker.task());
  blocker.wait_started();
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit(0, [&counter] { ++counter; }));
  }
  while (counter.load() < 8) {
    if (!pool.try_run_one()) std::this_thread::yield();
  }
  EXPECT_FALSE(pool.try_run_one());  // queue is empty now
  blocker.release.store(true, std::memory_order_release);
  held.get();
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 8);
  EXPECT_EQ(pool.steals(), 8u);
}

TEST(Contracts, RequireThrowsContractViolation) {
  EXPECT_THROW(RS_REQUIRE(false, "boom"), ContractViolation);
  EXPECT_NO_THROW(RS_REQUIRE(true, "fine"));
}

TEST(Contracts, CheckThrowsInternalError) {
  EXPECT_THROW(RS_CHECK(false, "bug"), InternalError);
}

}  // namespace
}  // namespace reasched
