#include "layers.hpp"

#include <map>

namespace e2e {

// ------------------------------------------------------------- TraceIndex --

TraceIndex TraceIndex::build(std::span<const reasched::Request> trace) {
  std::uint64_t max_id = 0;
  for (const auto& request : trace) max_id = std::max(max_id, request.job.value);
  TraceIndex index;
  index.insert_at.assign(max_id + 1, kNone);
  index.erase_at.assign(max_id + 1, kNone);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto& slot = trace[i].kind == reasched::RequestKind::kInsert
                     ? index.insert_at[trace[i].job.value]
                     : index.erase_at[trace[i].job.value];
    slot = static_cast<std::uint32_t>(i);
  }
  return index;
}

// -------------------------------------------------------------- TimedCore --

void TimedCore::account(const char* primary, const char* migration, std::uint32_t at,
                        std::uint64_t start, const reasched::RequestStats& stats,
                        std::vector<std::uint32_t>& samples) {
  const std::uint64_t end = now_ns();
  const std::uint64_t took = end - start;
  // A call whose job's own request lies outside the batch is a rebalance
  // migration caused by some delete of the batch.
  const bool own = at != TraceIndex::kNone && at >= batch_.first && at < batch_.end;
  record_span(own ? primary : migration, start, end, batch_.span,
              own ? static_cast<std::int64_t>(at) : -1);
  samples.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(took, 0xffffffffu)));
  batch_busy_ns += took;
  batch_thread = SpanLog::thread_id();
  busy_ns += took;
  levels += stats.levels_touched;
  rebuilds += stats.rebuilt ? 1 : 0;
  degraded += stats.degraded;
  migrate_ops += own ? 0 : 1;
}

reasched::RequestStats TimedCore::insert(reasched::JobId id, reasched::Window window) {
  if (!SpanLog::global().enabled()) return inner_->insert(id, window);
  const std::uint64_t start = now_ns();
  const reasched::RequestStats stats = inner_->insert(id, window);
  const std::uint32_t at =
      id.value < index_.insert_at.size() ? index_.insert_at[id.value] : TraceIndex::kNone;
  account("core.insert", "core.migrate_in", at, start, stats, insert_ns);
  return stats;
}

reasched::RequestStats TimedCore::erase(reasched::JobId id) {
  if (!SpanLog::global().enabled()) return inner_->erase(id);
  const std::uint64_t start = now_ns();
  const reasched::RequestStats stats = inner_->erase(id);
  const std::uint32_t at =
      id.value < index_.erase_at.size() ? index_.erase_at[id.value] : TraceIndex::kNone;
  account("core.erase", "core.migrate_out", at, start, stats, erase_ns);
  return stats;
}

// ----------------------------------------------------------- TimedService --

reasched::BatchResult TimedService::apply(std::span<const reasched::Request> batch) {
  const std::uint64_t first = next_;
  next_ += batch.size();
  SpanLog& log = SpanLog::global();
  if (!log.enabled()) return inner_.apply(batch);

  for (TimedCore* core : cores_) {
    core->batch_busy_ns = 0;
    core->batch_thread = 0;
  }
  batch_ = BatchContext{log.next_id(), first, first + batch.size()};
  const std::uint64_t start = now_ns();
  reasched::BatchResult result = inner_.apply(batch);
  const std::uint64_t end = now_ns();

  // Machines whose ops ran on one thread add up on that thread; the thread
  // with the largest sum is the slowest branch of the fan-out.
  std::map<std::uint32_t, std::uint64_t> per_thread;
  BatchRecord record{first, batch.size(), start, end, 0, 0};
  for (const TimedCore* core : cores_) {
    if (core->batch_busy_ns == 0) continue;
    per_thread[core->batch_thread] += core->batch_busy_ns;
    record.core_ns += core->batch_busy_ns;
  }
  for (const auto& [thread, ns] : per_thread) {
    record.slowest_core_ns = std::max(record.slowest_core_ns, ns);
  }
  batches.push_back(record);
  log.record(Span{"service.apply", start, end, batch_.span, 0,
                  static_cast<std::int64_t>(first), SpanLog::thread_id()});

  std::uint64_t backlog = 0;
  for (const TimedCore* core : cores_) backlog += core->inner().audit_backlog();
  backlog_max = std::max(backlog_max, backlog);
  return result;
}

}  // namespace e2e
