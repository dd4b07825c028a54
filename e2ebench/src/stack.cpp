#include "stack.hpp"

#include <sys/resource.h>

#include <filesystem>
#include <sstream>
#include <unordered_map>

#include "core/multi_machine.hpp"
#include "schedule/validator.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/registry.hpp"

namespace e2e {

using reasched::BatchResult;
using reasched::IReallocScheduler;
using reasched::ReservationScheduler;
using reasched::Request;
using reasched::RequestKind;
using reasched::RequestStats;
using reasched::Schedule;
using reasched::ShardedScheduler;

namespace {

constexpr std::size_t kWarmBatch = 512;
/// Layer self times on the blocking path must add up to the measured
/// end-to-end time within this share of it.
constexpr double kReconcileTolerance = 0.02;

reasched::SchedulerOptions machine_options(const Posture& posture) {
  reasched::SchedulerOptions options;
  options.overflow = reasched::OverflowPolicy::kBestEffort;
  if (posture.audit) {
    options.audit_policy.mode = reasched::audit::Mode::kIncremental;
    options.audit_policy.cadence = 64;
  }
  options.telemetry.enabled = posture.telemetry;
  return options;
}

/// Untimed sequential reference: the same trace through the paper's
/// sequential reduction.
struct Reference {
  Schedule schedule;
  std::vector<RequestStats> stats;  // one per request from `from` on
};

Reference sequential_reference(std::span<const Request> trace, std::size_t from) {
  Posture plain;
  const reasched::SchedulerOptions options = machine_options(plain);
  reasched::MultiMachineScheduler reference(
      kMachines, [options] { return std::make_unique<ReservationScheduler>(options); });
  Reference out;
  out.stats.reserve(trace.size() - from);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& request = trace[i];
    const RequestStats stats = request.kind == RequestKind::kInsert
                                   ? reference.insert(request.job, request.window)
                                   : reference.erase(request.job);
    if (i >= from) out.stats.push_back(stats);
  }
  out.schedule = reference.snapshot();
  return out;
}

}  // namespace

std::vector<Request> make_trace(const TraceSpec& spec, std::uint64_t seed,
                                std::size_t serve) {
  reasched::ChurnParams params;
  params.seed = seed;
  params.target_active = spec.active;
  params.requests = spec.active + serve;
  params.machines = kMachines;
  params.min_span = 64;
  params.max_span = spec.max_span;
  params.gamma = 8;
  params.aligned = true;
  params.placement = spec.placement;
  return reasched::make_churn_trace(params);
}

reasched::ReservationScheduler::AuditWork Stack::audit_work() const {
  reasched::ReservationScheduler::AuditWork sum;
  for (const TimedCore* core : cores) {
    const auto work = core->inner().audit_work();
    sum.incremental_audits += work.incremental_audits;
    sum.regions_checked += work.regions_checked;
  }
  return sum;
}

std::unique_ptr<Stack> build_stack(const Posture& posture, const std::string& wal_dir,
                                   const TraceIndex* index) {
  auto stack = std::make_unique<Stack>();
  const reasched::SchedulerOptions options = machine_options(posture);
  Stack* raw = stack.get();
  const ShardedScheduler::Factory factory =
      [raw, options, index]() -> std::unique_ptr<IReallocScheduler> {
    auto machine = std::make_unique<ReservationScheduler>(options);
    if (index == nullptr) return machine;
    auto core = std::make_unique<TimedCore>(std::move(machine), *index, raw->batch);
    raw->cores.push_back(core.get());
    return core;
  };
  ShardedScheduler::Options service;
  service.shards = posture.shards;
  service.telemetry.enabled = posture.telemetry;
  if (posture.wal_sync_every) {
    reasched::durability::DurabilityPolicy wal;
    wal.dir = wal_dir;
    wal.sync_every = *posture.wal_sync_every;
    service.wal = wal;
  }
  stack->sharded = std::make_unique<ShardedScheduler>(kMachines, factory, service);
  if (index != nullptr) {
    stack->service =
        std::make_unique<TimedService>(*stack->sharded, stack->cores, stack->batch);
  }
  return stack;
}

void warm(IReallocScheduler& scheduler, std::span<const Request> prefix) {
  for (std::size_t first = 0; first < prefix.size(); first += kWarmBatch) {
    const std::size_t count = std::min(kWarmBatch, prefix.size() - first);
    const BatchResult result = scheduler.apply(prefix.subspan(first, count));
    if (!result.all_served()) throw std::runtime_error("warm-up request rejected");
  }
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_trace(const std::vector<Request>& a, const std::vector<Request>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const Request& x, const Request& y) {
           return x.kind == y.kind && x.job == y.job && x.window == y.window;
         });
}

bool same_stats(const RequestStats& a, const RequestStats& b) {
  return a.reallocations == b.reallocations && a.migrations == b.migrations &&
         a.levels_touched == b.levels_touched && a.degraded == b.degraded &&
         a.rebuilt == b.rebuilt;
}

double check_against_reference(Result& result, std::span<const Request> trace,
                               std::size_t from, const Schedule& schedule,
                               const std::vector<RequestStats>& stats) {
  const Reference reference = sequential_reference(trace, from);
  result.check(schedule.assignments() == reference.schedule.assignments(),
               "final schedule differs from the sequential replay");
  bool stats_equal = stats.size() == reference.stats.size();
  for (std::size_t i = 0; stats_equal && i < stats.size(); ++i) {
    stats_equal = same_stats(stats[i], reference.stats[i]);
  }
  result.check(stats_equal, "per-request stats differ from the sequential replay");

  std::unordered_map<reasched::JobId, reasched::Window> active;
  for (const Request& request : trace) {
    if (request.kind == RequestKind::kInsert) {
      active[request.job] = request.window;
    } else {
      active.erase(request.job);
    }
  }
  const std::uint64_t start = now_ns();
  const reasched::ValidationReport report = reasched::validate_schedule(schedule, active);
  const double validate_ms = seconds_since(start) * 1e3;
  result.check(report.ok(), "validate_schedule: " + report.to_string());
  return validate_ms;
}

void report_costs(Result& result, const std::vector<RequestStats>& stats) {
  std::uint64_t reallocations = 0, migrations = 0, worst = 0;
  for (const RequestStats& s : stats) {
    reallocations += s.reallocations;
    migrations += s.migrations;
    if (!s.rebuilt) worst = std::max(worst, s.reallocations);
  }
  const double n = static_cast<double>(std::max<std::size_t>(stats.size(), 1));
  result.e2e("reallocs_per_req", static_cast<double>(reallocations) / n, "count");
  result.ungated("reallocs_max", static_cast<double>(worst), "count");
  result.e2e("migrations_per_req", static_cast<double>(migrations) / n, "count");
}

double expo_ms() {
  const auto snapshot = reasched::telemetry::Registry::global().snapshot();
  std::ostringstream out;
  const std::uint64_t start = now_ns();
  reasched::telemetry::write_prometheus(out, snapshot);
  return seconds_since(start) * 1e3;
}

std::string json_list(const std::vector<double>& values) {
  std::string json = "[";
  for (const double value : values) json += (json.size() > 1 ? "," : "") + json_number(value);
  return json + "]";
}

void RoundFigures::add(double throughput,
                       const std::vector<std::pair<double, std::uint64_t>>& latency_us) {
  throughput_rps.push_back(throughput);
  p50_us.push_back(weighted_percentile(latency_us, 0.50));
  p99_us.push_back(weighted_percentile(latency_us, 0.99));
}

void RoundFigures::report(Result& result) const {
  result.e2e("throughput_rps", median(throughput_rps), "1/s");
  result.e2e("latency_p50_us", median(p50_us), "us");
  result.ungated("latency_p99_us", median(p99_us), "us");
  result.fact("round_throughput_rps", json_list(throughput_rps));
  result.fact("round_latency_p50_us", json_list(p50_us));
  result.fact("round_latency_p99_us", json_list(p99_us));
}

void CoreTotals::add(const Stack& stack) {
  for (const TimedCore* core : stack.cores) {
    insert_ns.insert(insert_ns.end(), core->insert_ns.begin(), core->insert_ns.end());
    erase_ns.insert(erase_ns.end(), core->erase_ns.begin(), core->erase_ns.end());
    busy_ns += core->busy_ns;
    levels += core->levels;
    rebuilds += core->rebuilds;
    degraded += core->degraded;
    migrate_ops += core->migrate_ops;
  }
}

void CoreTotals::add(const CoreTotals& other) {
  insert_ns.insert(insert_ns.end(), other.insert_ns.begin(), other.insert_ns.end());
  erase_ns.insert(erase_ns.end(), other.erase_ns.begin(), other.erase_ns.end());
  busy_ns += other.busy_ns;
  levels += other.levels;
  rebuilds += other.rebuilds;
  degraded += other.degraded;
  migrate_ops += other.migrate_ops;
}

void ServiceTotals::add(const ServiceTotals& other) {
  batches.insert(batches.end(), other.batches.begin(), other.batches.end());
  steals += other.steals;
  backlog_max = std::max(backlog_max, other.backlog_max);
  audits += other.audits;
  regions += other.regions;
}

void report_core_and_service(Result& result, const CoreTotals& core,
                             const ServiceTotals& service, std::uint64_t requests,
                             unsigned shards, double phase_s) {
  result.layer("core.insert_ns_p50", percentile(core.insert_ns, 0.50), "ns");
  result.layer("core.insert_ns_p99", percentile(core.insert_ns, 0.99), "ns");
  result.layer("core.erase_ns_p50", percentile(core.erase_ns, 0.50), "ns");
  result.layer("core.erase_ns_p99", percentile(core.erase_ns, 0.99), "ns");
  result.layer("core.busy_s", static_cast<double>(core.busy_ns) / 1e9, "s");
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  result.layer("core.levels_per_req",
               ratio(static_cast<double>(core.levels), static_cast<double>(requests)), "count");
  result.layer("core.rebuild_requests", static_cast<double>(core.rebuilds), "count");
  result.layer("core.degraded", static_cast<double>(core.degraded), "count");

  std::vector<std::uint64_t> wall;
  std::uint64_t wall_ns = 0, self_ns = 0, core_ns = 0;
  for (const BatchRecord& batch : service.batches) {
    const std::uint64_t took = batch.end_ns - batch.start_ns;
    wall.push_back(took);
    wall_ns += took;
    self_ns += took - std::min(took, batch.slowest_core_ns);
    core_ns += batch.core_ns;
  }
  const double batches = static_cast<double>(std::max<std::size_t>(service.batches.size(), 1));
  result.layer("service.apply_us_p50", percentile(wall, 0.50) / 1e3, "us");
  result.layer("service.apply_us_p99", percentile(wall, 0.99) / 1e3, "us");
  result.layer("service.busy_frac", static_cast<double>(wall_ns) / 1e9 / phase_s, "ratio");
  result.layer("service.self_us_per_batch", static_cast<double>(self_ns) / 1e3 / batches, "us");
  // Base: shards x summed apply wall time, i.e. every shard busy in core
  // code for the whole of every apply() reads 1.0.
  result.layer("service.parallel_eff",
               ratio(static_cast<double>(core_ns),
                     static_cast<double>(shards) * static_cast<double>(wall_ns)),
               "ratio");
  result.layer("service.steals", static_cast<double>(service.steals), "count");
  result.layer("audit.incremental_audits", static_cast<double>(service.audits), "count");
  result.layer("audit.regions_checked", static_cast<double>(service.regions), "count");
  result.layer("audit.backlog_max", static_cast<double>(service.backlog_max), "count");
}

void write_layer_table(Result& result, const std::string& title,
                       const std::vector<std::pair<std::string, double>>& rows,
                       double end_to_end, const char* unit) {
  std::ostringstream out;
  out << title << "\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-28s %14s %8s\n", "layer (self time)", unit, "share");
  out << line;
  double sum = 0;
  for (const auto& [name, value] : rows) {
    sum += value;
    std::snprintf(line, sizeof(line), "  %-28s %14.3f %7.1f%%\n", name.c_str(), value,
                  end_to_end > 0 ? 100.0 * value / end_to_end : 0.0);
    out << line;
  }
  std::snprintf(line, sizeof(line), "  %-28s %14.3f %7.1f%%\n", "sum of layers", sum,
                end_to_end > 0 ? 100.0 * sum / end_to_end : 0.0);
  out << line;
  std::snprintf(line, sizeof(line), "  %-28s %14.3f\n", "measured end-to-end", end_to_end);
  out << line;
  result.tables += out.str();
  const bool reconciles = std::abs(sum - end_to_end) <= kReconcileTolerance * end_to_end;
  result.check(reconciles, std::string("layer table does not add up: ") + title);
}

Restart measure_restart(const Posture& posture, const std::string& wal_dir,
                        const Schedule& expected, std::uint64_t records, Result& result) {
  const std::uint64_t start = now_ns();
  auto restarted = build_stack(posture, wal_dir, nullptr);
  Restart restart;
  restart.seconds = seconds_since(start);
  if (posture.wal_sync_every) {
    const auto& report = restarted->sharded->recovery_report();
    restart.replay_rps = static_cast<double>(report.replayed) / restart.seconds;
    result.check(report.replayed == records,
                 "recovery replayed a different number of records than were logged");
    result.check(restarted->sharded->snapshot().assignments() == expected.assignments(),
                 "recovered schedule differs from the pre-restart schedule");
  }
  restarted.reset();
  std::filesystem::remove_all(wal_dir);
  return restart;
}

}  // namespace e2e
