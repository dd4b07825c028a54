// Timing decorators for the traced run. Each wraps one layer's public entry
// points and times them from outside the library:
//
//   TimedService  an IReallocScheduler around ShardedScheduler; it is what
//                 IngestService and the closed-loop caller see, and it
//                 times every apply().
//   TimedCore     an IReallocScheduler around one per-machine
//                 ReservationScheduler, built by the ShardedScheduler
//                 factory (factory call i is machine i); it times insert()
//                 and erase() on whichever shard thread runs them.
//
// With the span log disabled both forward without reading the clock, so
// warm-up and restart replay stay untimed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common.hpp"
#include "core/reservation_scheduler.hpp"
#include "service/sharded_scheduler.hpp"

namespace e2e {

/// Trace index of each job's insert and delete request (job ids of the
/// churn generator are dense from 1), so a core call can name the request
/// that caused it. kNone when the trace holds no such request.
struct TraceIndex {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::uint32_t> insert_at;
  std::vector<std::uint32_t> erase_at;

  static TraceIndex build(std::span<const reasched::Request> trace);
};

/// The batch the service decorator is applying, read by the core
/// decorators on the shard threads (the pool handoff orders the write
/// before their reads).
struct BatchContext {
  std::uint32_t span = 0;
  std::uint64_t first = 0;  // trace index of the batch's first request
  std::uint64_t end = 0;
};

class TimedCore final : public reasched::IReallocScheduler {
 public:
  TimedCore(std::unique_ptr<reasched::ReservationScheduler> inner,
            const TraceIndex& index, const BatchContext& batch)
      : inner_(std::move(inner)), index_(index), batch_(batch) {}

  reasched::RequestStats insert(reasched::JobId id, reasched::Window window) override;
  reasched::RequestStats erase(reasched::JobId id) override;
  [[nodiscard]] reasched::Schedule snapshot() const override { return inner_->snapshot(); }
  [[nodiscard]] std::size_t active_jobs() const override { return inner_->active_jobs(); }
  [[nodiscard]] unsigned machines() const override { return 1; }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const reasched::ReservationScheduler& inner() const { return *inner_; }

  // Per-batch accumulators, reset and read by TimedService around apply().
  std::uint64_t batch_busy_ns = 0;
  std::uint32_t batch_thread = 0;

  // Whole-run counters (traced segments only).
  std::vector<std::uint32_t> insert_ns;
  std::vector<std::uint32_t> erase_ns;
  std::uint64_t busy_ns = 0;
  std::uint64_t levels = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t degraded = 0;
  std::uint64_t migrate_ops = 0;  // calls serving no request of the batch

 private:
  void account(const char* primary, const char* migration, std::uint32_t at,
               std::uint64_t start, const reasched::RequestStats& stats,
               std::vector<std::uint32_t>& samples);

  std::unique_ptr<reasched::ReservationScheduler> inner_;
  const TraceIndex& index_;
  const BatchContext& batch_;
};

/// One applied batch as the service decorator saw it.
struct BatchRecord {
  std::uint64_t first = 0;  // trace index of the first request
  std::uint64_t size = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t slowest_core_ns = 0;  // largest per-thread sum of core time
  std::uint64_t core_ns = 0;          // summed core time over all threads
};

class TimedService final : public reasched::IReallocScheduler {
 public:
  /// Requests reach the decorator in trace order, starting at trace index 0.
  TimedService(reasched::ShardedScheduler& inner, std::vector<TimedCore*> cores,
               BatchContext& batch)
      : inner_(inner), cores_(std::move(cores)), batch_(batch) {}

  reasched::RequestStats insert(reasched::JobId id, reasched::Window window) override {
    ++next_;
    return inner_.insert(id, window);
  }
  reasched::RequestStats erase(reasched::JobId id) override {
    ++next_;
    return inner_.erase(id);
  }
  reasched::BatchResult apply(std::span<const reasched::Request> batch) override;
  [[nodiscard]] reasched::Schedule snapshot() const override { return inner_.snapshot(); }
  [[nodiscard]] std::size_t active_jobs() const override { return inner_.active_jobs(); }
  [[nodiscard]] unsigned machines() const override { return inner_.machines(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<BatchRecord> batches;  // traced batches, in apply order
  std::uint64_t backlog_max = 0;     // largest summed audit backlog after a batch

 private:
  reasched::ShardedScheduler& inner_;
  std::vector<TimedCore*> cores_;
  BatchContext& batch_;
  std::uint64_t next_ = 0;  // trace index of the next request
};

}  // namespace e2e
