// hotspot-closed and durable-closed: one caller applies fixed batches to
// ShardedScheduler in a closed loop. A run repeats rounds (fresh stack,
// untimed warm-up, the same timed segment, restart) until --seconds have
// passed, reports medians over rounds, and checks every round against the
// first and the first against a sequential replay. A traced run repeats
// the rounds with the layer decorators recording.
#include <filesystem>

#include "stack.hpp"

namespace e2e {

using reasched::BatchResult;
using reasched::IReallocScheduler;
using reasched::Request;
using reasched::RequestStats;
using reasched::Schedule;
using reasched::WindowPlacement;

namespace {

struct ClosedSpec {
  const char* name = "";
  TraceSpec trace;
  Posture posture;
  std::size_t batch = 512;
  std::size_t segment = 0;  // timed requests per round
};

/// What one measured phase (a sequence of rounds) observed.
struct ClosedPhase {
  int rounds = 0;
  double timed_s = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  RoundFigures figures;
  std::vector<double> sync_ms, restart_s, snapshot_ms, wal_bytes_per_req, replay_rps;
  // Traced phase only.
  std::vector<std::uint64_t> caller_ns;  // per batch, as the caller timed it
  CoreTotals core;
  ServiceTotals service;
};

/// Baseline every round must reproduce exactly.
struct ClosedBaseline {
  std::optional<Schedule> schedule;
  std::vector<RequestStats> stats;
};

ClosedPhase run_closed_phase(const ClosedSpec& spec, const Args& args,
                             std::span<const Request> trace, const TraceIndex* index,
                             ClosedBaseline& baseline, Result& result) {
  ClosedPhase phase;
  const std::string wal_dir = args.out_dir + "/wal-" + spec.name;
  const std::span<const Request> warm_part = trace.subspan(0, spec.trace.active);
  const std::span<const Request> segment = trace.subspan(spec.trace.active);
  SpanLog& log = SpanLog::global();
  const std::uint64_t phase_start = now_ns();
  for (;; ++phase.rounds) {
    if (phase.rounds >= 3 && seconds_since(phase_start) >= phase_seconds(args)) break;
    std::filesystem::remove_all(wal_dir);
    auto stack = build_stack(spec.posture, wal_dir, index);
    IReallocScheduler& front = stack->front();
    warm(front, warm_part);

    const auto audit_before = stack->audit_work();
    const std::uint64_t steals_before = stack->sharded->steal_count();
    std::vector<RequestStats> stats;
    stats.reserve(segment.size());
    std::vector<std::pair<double, std::uint64_t>> batch_us;  // (latency, requests)
    log.set_enabled(index != nullptr);
    const std::uint64_t segment_start = now_ns();
    for (std::size_t first = 0; first < segment.size(); first += spec.batch) {
      const std::size_t count = std::min(spec.batch, segment.size() - first);
      const std::uint64_t start = now_ns();
      const BatchResult batch = front.apply(segment.subspan(first, count));
      const std::uint64_t took = now_ns() - start;
      batch_us.emplace_back(static_cast<double>(took) / 1e3, count);
      if (index != nullptr) phase.caller_ns.push_back(took);
      phase.rejected += batch.rejected.size();
      stats.insert(stats.end(), batch.stats.begin(), batch.stats.end());
    }
    const double segment_s = seconds_since(segment_start);
    phase.timed_s += segment_s;
    phase.served += segment.size();
    phase.figures.add(static_cast<double>(segment.size()) / segment_s, batch_us);

    if (index != nullptr) {
      const auto audit_after = stack->audit_work();
      phase.core.add(*stack);
      auto& batches = stack->service->batches;
      phase.service.batches.insert(phase.service.batches.end(), batches.begin(),
                                   batches.end());
      phase.service.steals += stack->sharded->steal_count() - steals_before;
      phase.service.backlog_max =
          std::max(phase.service.backlog_max, stack->service->backlog_max);
      phase.service.audits += audit_after.incremental_audits - audit_before.incremental_audits;
      phase.service.regions += audit_after.regions_checked - audit_before.regions_checked;
    }

    if (spec.posture.wal_sync_every) {
      const std::uint64_t start = now_ns();
      stack->sharded->sync_wal();
      const std::uint64_t end = now_ns();
      record_span("durability.sync", start, end);
      phase.sync_ms.push_back(static_cast<double>(end - start) / 1e6);
      phase.wal_bytes_per_req.push_back(static_cast<double>(dir_bytes(wal_dir)) /
                                        static_cast<double>(stack->sharded->csn()));
    }
    std::uint64_t start = now_ns();
    Schedule schedule = front.snapshot();
    std::uint64_t end = now_ns();
    record_span("schedule.snapshot", start, end);
    log.set_enabled(false);
    phase.snapshot_ms.push_back(static_cast<double>(end - start) / 1e6);

    if (!baseline.schedule) {
      baseline.schedule = schedule;
      baseline.stats = stats;
    } else {
      result.check(schedule.assignments() == baseline.schedule->assignments(),
                   "a round's schedule differs from the first round's");
      bool equal = stats.size() == baseline.stats.size();
      for (std::size_t i = 0; equal && i < stats.size(); ++i) {
        equal = same_stats(stats[i], baseline.stats[i]);
      }
      result.check(equal, "a round's per-request stats differ from the first round's");
    }

    // Every round ends in a restart, so recovery_s samples the host's speed
    // at as many times as throughput does.
    stack.reset();
    const Restart restart = measure_restart(spec.posture, wal_dir, schedule, trace.size(), result);
    phase.restart_s.push_back(restart.seconds);
    phase.replay_rps.push_back(restart.replay_rps);
  }
  return phase;
}

Result run_closed(const ClosedSpec& spec, const Args& args) {
  Result result;
  const std::string wal_dir = args.out_dir + "/wal-" + spec.name;

  // Set-up: trace generation, construction and warm-up, kSetups times.
  std::vector<Request> trace;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t start = now_ns();
    std::vector<Request> generated = make_trace(spec.trace, args.seed, spec.segment);
    std::filesystem::remove_all(wal_dir);
    auto stack = build_stack(spec.posture, wal_dir, nullptr);
    warm(stack->front(), std::span<const Request>(generated).subspan(0, spec.trace.active));
    setups.push_back(seconds_since(start));
    stack.reset();
    std::filesystem::remove_all(wal_dir);
    if (trace.empty()) {
      trace = std::move(generated);
    } else {
      result.check(same_trace(generated, trace),
                   "trace generation is not deterministic in the seed");
    }
  }

  ClosedBaseline baseline;
  const ClosedPhase plain = run_closed_phase(spec, args, trace, nullptr, baseline, result);
  const double peak_mb = peak_rss_mb();

  result.attempted = plain.served;
  result.failed = plain.rejected;
  plain.figures.report(result);
  report_costs(result, baseline.stats);
  result.e2e("setup_s", median(setups), "s");
  result.e2e("recovery_s", median(plain.restart_s), "s");
  result.e2e("peak_rss_mb", peak_mb, "MB");
  result.fact("restart_s", json_list(plain.restart_s));
  result.fact("setup_s", json_list(setups));
  result.fact("rounds", std::to_string(plain.rounds));
  result.fact("batch", std::to_string(spec.batch));
  result.fact("latency_samples_per_round", std::to_string(spec.segment));

  const Schedule& schedule = *baseline.schedule;
  const double validate_ms = check_against_reference(result, trace, spec.trace.active, schedule,
                                               baseline.stats);

  if (args.trace) {
    const TraceIndex index = TraceIndex::build(trace);
    ClosedBaseline traced_baseline = baseline;
    const ClosedPhase traced =
        run_closed_phase(spec, args, trace, &index, traced_baseline, result);
    report_core_and_service(result, traced.core, traced.service, traced.served,
                            spec.posture.shards, traced.timed_s);
    // The closed loops bypass ingest and telemetry.
    result.layer("ingest.push_ns_p99", 0.0, "ns");
    result.layer("ingest.queue_wait_us_p50", 0.0, "us");
    result.layer("ingest.queue_wait_us_p99", 0.0, "us");
    result.layer("ingest.gen_lag_us_p99", 0.0, "us");
    result.layer("ingest.batch_size_mean", 0.0, "count");
    result.layer("ingest.deadline_close_frac", 0.0, "ratio");
    const bool wal = spec.posture.wal_sync_every.has_value();
    result.layer("durability.sync_ms", wal ? median(traced.sync_ms) : 0.0, "ms");
    result.layer("durability.wal_bytes_per_req", wal ? median(traced.wal_bytes_per_req) : 0.0,
                 "B");
    result.layer("durability.replay_records_per_s", wal ? median(traced.replay_rps) : 0.0,
                 "1/s");
    result.layer("telemetry.scrapes", 0.0, "count");
    result.layer("telemetry.expo_ms", expo_ms(), "ms");
    result.layer("schedule.snapshot_ms", median(traced.snapshot_ms), "ms");
    result.layer("schedule.validate_ms", validate_ms, "ms");
    result.layer("trace.overhead_throughput",
                 median(traced.figures.throughput_rps) / median(plain.figures.throughput_rps),
                 "ratio");
    result.layer("trace.overhead_latency_p50",
                 median(traced.figures.p50_us) / median(plain.figures.p50_us), "ratio");

    // Closed-loop reconciliation: the caller's batch latency splits into
    // the service's own time, the slowest shard thread's core time, and
    // the call overhead no decorator covers.
    double caller = 0, self = 0, core = 0;
    bool nested = traced.caller_ns.size() == traced.service.batches.size();
    for (std::size_t i = 0; nested && i < traced.caller_ns.size(); ++i) {
      const BatchRecord& batch = traced.service.batches[i];
      const std::uint64_t wall = batch.end_ns - batch.start_ns;
      nested = batch.slowest_core_ns <= wall && wall <= traced.caller_ns[i];
      caller += static_cast<double>(traced.caller_ns[i]);
      self += static_cast<double>(wall - batch.slowest_core_ns);
      core += static_cast<double>(batch.slowest_core_ns);
    }
    result.check(nested, "core spans do not nest inside their service.apply span");
    const double per_batch =
        1e3 * static_cast<double>(std::max<std::size_t>(traced.caller_ns.size(), 1));
    write_layer_table(result, std::string(spec.name) + ": closed-loop batch latency per batch",
                      {{"service.self", self / per_batch},
                       {"core (slowest thread)", core / per_batch}},
                      caller / per_batch, "us");
    result.fact("traced_batches", std::to_string(traced.service.batches.size()));
    result.fact("core_migrate_ops", std::to_string(traced.core.migrate_ops));
  }
  return result;
}

}  // namespace

Result run_hotspot_closed(const Args& args) {
  ClosedSpec spec;
  spec.name = "hotspot-closed";
  spec.trace = {WindowPlacement::kNestedHotspots, 16'384, 1u << 16};
  spec.posture.shards = 4;
  spec.batch = 512;
  spec.segment = 200'000;
  Result result = run_closed(spec, args);
  result.fact("wal", json_string("none"));
  result.fact("threads", "4");  // caller + 3 shard workers
  return result;
}

Result run_durable_closed(const Args& args) {
  ClosedSpec spec;
  spec.name = "durable-closed";
  spec.trace = {WindowPlacement::kUniform, 4'096, 4096};
  spec.posture.shards = 1;
  spec.posture.wal_sync_every = 0;
  spec.batch = 512;
  spec.segment = 128'000;
  Result result = run_closed(spec, args);
  result.fact("wal", json_string("one WAL, buffered (sync_every=0); fsync once per round, "
                                 "outside the timed segment"));
  result.fact("threads", "1");  // the caller runs the single shard inline
  return result;
}

}  // namespace e2e
