// fullstack-closed and fullstack-openloop share one posture: IngestService
// (one lane, external sequencing, batches of up to 1024 or 200 us) in front
// of ShardedScheduler with 2 shards, a buffered per-shard WAL, incremental
// audit on every machine at cadence 64, and the Scraper at 100 ms. They
// differ only in how the generator thread offers the trace.
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "ingest/ingest_service.hpp"
#include "stack.hpp"
#include "telemetry/scraper.hpp"

namespace e2e {

using reasched::BatchResult;
using reasched::IReallocScheduler;
using reasched::Request;
using reasched::RequestStats;
using reasched::Schedule;
using reasched::WindowPlacement;

namespace {

/// The repository's open-loop admission budget (EXPERIMENTS.md §E19).
constexpr double kSloBudgetUs = 2000.0;
constexpr std::size_t kMaxBatch = 1024;
constexpr std::size_t kWindow = 1024;

/// The fullstack-openloop ladder: offered rate in requests per second and
/// the share of --seconds the rung lasts. Frozen: never recalibrated per
/// run or per host. The posture's closed-loop capacity (batches of 1024)
/// measured 56-58k req/s on the 4-core recording host, so the top rung sits
/// at about 0.95x of it and the middle rung, whose sojourn is the reported
/// latency, at about 0.3x. The middle rung is the longest because its p99
/// is set by rare multi-millisecond stalls.
struct Rung {
  double rate;
  double share;
};
constexpr std::array<Rung, 5> kLadder = {
    {{4'000, 0.1}, {8'000, 0.1}, {16'000, 0.5}, {32'000, 0.15}, {54'000, 0.15}}};
constexpr std::size_t kMiddleRung = 2;

Posture fullstack_posture() {
  Posture posture;
  posture.shards = 2;
  posture.audit = true;
  posture.telemetry = true;
  posture.wal_sync_every = 0;
  return posture;
}

constexpr TraceSpec kFullstackTrace{WindowPlacement::kUniform, 4'096, 4096};

struct RungReport {
  double rate = 0;
  std::uint64_t requests = 0;
  double p50_us = 0, p99_us = 0, achieved_rps = 0, gen_lag_p99_us = 0;
  std::size_t depth_mid = 0, depth_end = 0;
  bool growing = false;  // in-flight depth rose from mid-rung to rung end, past one full batch
  bool late = false;     // generator lag p99 above the rung's sojourn p50
};

/// One pass of the trace through the ingest stack. Sojourn runs from each
/// request's scheduled instant (open loop) or push (closed loop) to the
/// return of the batch that applied it.
struct IngestPhase {
  std::vector<std::uint64_t> sched_ns, push_start_ns, push_end_ns, done_ns;
  std::vector<std::size_t> rung_first;  // first ticket of each rung, then the end
  std::vector<std::size_t> depth_mid, depth_end;
  reasched::ingest::IngestStats ingest;
  std::vector<RequestStats> stats;
  Schedule schedule;
  std::uint64_t scrapes = 0;
  double timed_s = 0, sync_ms = 0, snapshot_ms = 0, wal_bytes_per_req = 0;
  bool complete = true;
  // Traced phase only.
  CoreTotals core;
  ServiceTotals service;
};

reasched::ingest::IngestOptions ingest_options() {
  reasched::ingest::IngestOptions options;
  options.lanes = 1;  // one generator thread
  options.max_batch = kMaxBatch;
  options.batch_deadline_us = 200;
  options.external_sequencing = true;
  options.record_stats = true;
  options.telemetry.enabled = true;
  return options;
}

reasched::telemetry::Scraper::Options scraper_options() {
  reasched::telemetry::Scraper::Options options;
  options.interval_ms = 100;
  return options;
}

/// Builds the stack on a fresh WAL directory, warms it, serves the trace's
/// serve part through IngestService, syncs the WAL and snapshots. The WAL
/// directory is left for a restart. The generator thread runs open loop,
/// each rung's requests at their scheduled instants, or, with no rungs,
/// closed loop in windows of kWindow requests, each pushed and then drained.
IngestPhase run_ingest_phase(const std::string& wal_dir, std::span<const Request> trace,
                             const std::vector<std::size_t>& rung_counts,
                             const TraceIndex* index, Result& result) {
  IngestPhase phase;
  const Posture posture = fullstack_posture();
  const std::span<const Request> serve = trace.subspan(kFullstackTrace.active);
  std::filesystem::remove_all(wal_dir);
  auto stack = build_stack(posture, wal_dir, index);
  warm(stack->front(), trace.subspan(0, kFullstackTrace.active));
  const auto audit_before = stack->audit_work();
  const std::uint64_t steals_before = stack->sharded->steal_count();

  const std::size_t n = serve.size();
  phase.sched_ns.resize(n);
  phase.push_start_ns.resize(n);
  phase.push_end_ns.resize(index != nullptr ? n : 0);
  std::vector<std::uint64_t> batch_done_ns;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch_tickets;  // (first, size)
  batch_done_ns.reserve(n);
  batch_tickets.reserve(n);

  reasched::ingest::IngestOptions options = ingest_options();
  options.on_batch = [&](std::span<const Request> requests, const BatchResult&,
                         std::uint64_t first_ticket) {
    batch_done_ns.push_back(now_ns());
    batch_tickets.emplace_back(first_ticket, requests.size());
  };
  SpanLog& log = SpanLog::global();
  {
    reasched::ingest::IngestService ingest(stack->front(), options);
    reasched::telemetry::Scraper scraper(scraper_options());
    log.set_enabled(index != nullptr);
    const auto push = [&](std::size_t ticket, std::uint64_t due, std::uint64_t now) {
      phase.sched_ns[ticket] = due;
      phase.push_start_ns[ticket] = now;
      ingest.push_sequenced(ticket, serve[ticket]);
      if (index != nullptr) phase.push_end_ns[ticket] = now_ns();
    };
    if (rung_counts.empty()) {
      for (std::size_t first = 0; first < n; first += kWindow) {
        for (std::size_t t = first; t < std::min(first + kWindow, n); ++t) {
          const std::uint64_t now = now_ns();
          push(t, now, now);
        }
        ingest.drain();
      }
    } else {
      // Every request is pushed at its scheduled instant and its sojourn is
      // charged from that instant, however late the push.
      const std::uint64_t origin = now_ns() + 1'000'000;
      double offset_ns = 0;
      std::size_t ticket = 0;
      for (std::size_t rung = 0; rung < rung_counts.size(); ++rung) {
        phase.rung_first.push_back(ticket);
        const double interval_ns = 1e9 / kLadder[rung].rate;
        const std::size_t count = rung_counts[rung];
        for (std::size_t j = 0; j < count; ++j, ++ticket) {
          const std::uint64_t due =
              origin + static_cast<std::uint64_t>(offset_ns + static_cast<double>(j) * interval_ns);
          std::uint64_t now = now_ns();
          while (now < due) now = now_ns();
          push(ticket, due, now);
          if (j == count / 2) phase.depth_mid.push_back(ingest.queue_depth());
        }
        phase.depth_end.push_back(ingest.queue_depth());
        offset_ns += static_cast<double>(count) * interval_ns;
      }
    }
    phase.rung_first.push_back(n);
    ingest.drain();
    ingest.stop();
    scraper.stop();
    log.set_enabled(false);
    phase.ingest = ingest.stats();
    phase.stats = ingest.applied_stats();
    phase.scrapes = scraper.scrapes();
    result.failed += phase.ingest.scheduler_rejected + phase.ingest.rejected_depth +
                     phase.ingest.rejected_latency;
  }

  phase.done_ns.assign(n, 0);
  for (std::size_t b = 0; b < batch_tickets.size(); ++b) {
    const auto [first, size] = batch_tickets[b];
    for (std::uint64_t t = first; t < first + size && t < n; ++t) {
      phase.done_ns[t] = batch_done_ns[b];
    }
  }
  std::uint64_t last_done = 0;
  for (const std::uint64_t done : phase.done_ns) {
    phase.complete &= done != 0;
    last_done = std::max(last_done, done);
  }
  phase.timed_s = n == 0 ? 0.0 : static_cast<double>(last_done - phase.sched_ns[0]) / 1e9;

  if (index != nullptr) {
    const auto audit_after = stack->audit_work();
    phase.core.add(*stack);
    phase.service.batches = stack->service->batches;
    phase.service.backlog_max = stack->service->backlog_max;
    phase.service.audits = audit_after.incremental_audits - audit_before.incremental_audits;
    phase.service.regions = audit_after.regions_checked - audit_before.regions_checked;
  }
  phase.service.steals = stack->sharded->steal_count() - steals_before;

  log.set_enabled(index != nullptr);
  std::uint64_t start = now_ns();
  stack->sharded->sync_wal();
  std::uint64_t end = now_ns();
  record_span("durability.sync", start, end);
  phase.sync_ms = static_cast<double>(end - start) / 1e6;
  phase.wal_bytes_per_req =
      static_cast<double>(dir_bytes(wal_dir)) / static_cast<double>(stack->sharded->csn());
  start = now_ns();
  phase.schedule = stack->front().snapshot();
  end = now_ns();
  record_span("schedule.snapshot", start, end);
  log.set_enabled(false);
  phase.snapshot_ms = static_cast<double>(end - start) / 1e6;
  return phase;
}

/// For each ticket of `phase`, the index of the traced batch that applied
/// it (kUnmapped when no traced batch did).
constexpr std::uint32_t kUnmapped = 0xffffffffu;
std::vector<std::uint32_t> batch_of_ticket(const IngestPhase& phase) {
  const std::size_t n = phase.sched_ns.size();
  std::vector<std::uint32_t> batch_of(n, kUnmapped);
  for (std::size_t b = 0; b < phase.service.batches.size(); ++b) {
    const BatchRecord& batch = phase.service.batches[b];
    for (std::uint64_t i = batch.first; i < batch.first + batch.size; ++i) {
      if (i >= kFullstackTrace.active && i - kFullstackTrace.active < n) {
        batch_of[i - kFullstackTrace.active] = static_cast<std::uint32_t>(b);
      }
    }
  }
  return batch_of;
}

/// Records a "request" span per ticket, from its scheduled instant to its
/// batch's return, with its "ingest.push" and "ingest.queue" children.
void record_request_spans(const IngestPhase& phase) {
  const std::vector<std::uint32_t> batch_of = batch_of_ticket(phase);
  SpanLog& log = SpanLog::global();
  log.set_enabled(true);
  for (std::size_t t = 0; t < batch_of.size(); ++t) {
    if (batch_of[t] == kUnmapped) continue;
    const std::uint64_t apply_start = phase.service.batches[batch_of[t]].start_ns;
    const auto at = static_cast<std::int64_t>(kFullstackTrace.active + t);
    const std::uint32_t request_span = log.next_id();
    log.record(Span{"request", phase.sched_ns[t], phase.done_ns[t], request_span, 0, at, 0});
    log.record(Span{"ingest.push", phase.push_start_ns[t], phase.push_end_ns[t],
                    log.next_id(), request_span, at, 0});
    log.record(Span{"ingest.queue", phase.push_end_ns[t], apply_start, log.next_id(),
                    request_span, at, 0});
  }
  log.set_enabled(false);
}

/// Per-layer shares of the ingest stack's sojourn, pooled over phases.
/// Each request's sojourn splits, without gaps, into generator lag, its
/// push, the wait from push to its batch's apply(), the service's own part
/// of that apply, the slowest shard thread's core time, and the consumer's
/// work from apply() returning to the batch callback.
struct IngestLayers {
  std::vector<std::uint64_t> push_ns, wait_ns, lag_ns;
  double lag = 0, push = 0, queue = 0, self = 0, core = 0, post = 0, sojourn = 0;
  std::size_t requests = 0;
  bool mapped = true, nested = true;

  /// Adds tickets [first, last) of `phase` whose sojourn is at least
  /// `min_sojourn_ns`.
  void add(const IngestPhase& phase, std::size_t first, std::size_t last,
           std::uint64_t min_sojourn_ns = 0) {
    const std::vector<std::uint32_t> batch_of = batch_of_ticket(phase);
    const auto d = [](std::uint64_t later, std::uint64_t earlier) {
      return static_cast<double>(later) - static_cast<double>(earlier);
    };
    for (std::size_t t = first; t < last; ++t) {
      if (batch_of[t] == kUnmapped) {
        mapped = false;
        continue;
      }
      if (phase.done_ns[t] - phase.sched_ns[t] < min_sojourn_ns) continue;
      const BatchRecord& batch = phase.service.batches[batch_of[t]];
      const std::uint64_t wall = batch.end_ns - batch.start_ns;
      nested &= batch.slowest_core_ns <= wall;
      lag += d(phase.push_start_ns[t], phase.sched_ns[t]);
      push += d(phase.push_end_ns[t], phase.push_start_ns[t]);
      queue += d(batch.start_ns, phase.push_end_ns[t]);
      self += static_cast<double>(wall - std::min(wall, batch.slowest_core_ns));
      core += static_cast<double>(batch.slowest_core_ns);
      post += d(phase.done_ns[t], batch.end_ns);
      sojourn += d(phase.done_ns[t], phase.sched_ns[t]);
      push_ns.push_back(phase.push_end_ns[t] - phase.push_start_ns[t]);
      wait_ns.push_back(batch.start_ns - std::min(batch.start_ns, phase.sched_ns[t]));
      lag_ns.push_back(phase.push_start_ns[t] - phase.sched_ns[t]);
      ++requests;
    }
  }

  /// Appends the layer table (mean per request) and its reconciliation.
  void table(Result& result, const std::string& title) const {
    result.check(mapped, "a ticket was applied in no batch the service decorator saw");
    result.check(nested, "core spans do not nest inside their service.apply span");
    const double per = 1e3 * static_cast<double>(std::max<std::size_t>(requests, 1));
    write_layer_table(result, title,
                      {{"generator lag", lag / per},
                       {"ingest.push", push / per},
                       {"ingest.queue (push to apply)", queue / per},
                       {"service.self", self / per},
                       {"core (slowest thread)", core / per},
                       {"ingest.post (apply to done)", post / per}},
                      sojourn / per, "us");
  }

  void metrics(Result& result) const {
    result.layer("ingest.push_ns_p99", percentile(push_ns, 0.99), "ns");
    result.layer("ingest.queue_wait_us_p50", percentile(wait_ns, 0.50) / 1e3, "us");
    result.layer("ingest.queue_wait_us_p99", percentile(wait_ns, 0.99) / 1e3, "us");
    result.layer("ingest.gen_lag_us_p99", percentile(lag_ns, 0.99) / 1e3, "us");
  }
};

void report_ingest_counters(Result& result, const reasched::ingest::IngestStats& stats) {
  const double batches = static_cast<double>(std::max<std::uint64_t>(stats.batches, 1));
  result.layer("ingest.batch_size_mean", static_cast<double>(stats.applied) / batches, "count");
  result.layer("ingest.deadline_close_frac", static_cast<double>(stats.deadline_closes) / batches,
               "ratio");
}

/// Set-up of the ingest stack, kSetups times: trace generation,
/// construction (scheduler, WAL, IngestService, Scraper) and warm-up.
std::vector<double> ingest_setups(const Args& args, const std::string& wal_dir,
                                  std::size_t serve, std::vector<Request>& trace,
                                  Result& result) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t start = now_ns();
    std::vector<Request> generated = make_trace(kFullstackTrace, args.seed, serve);
    std::filesystem::remove_all(wal_dir);
    auto stack = build_stack(fullstack_posture(), wal_dir, nullptr);
    warm(stack->front(),
         std::span<const Request>(generated).subspan(0, kFullstackTrace.active));
    auto ingest =
        std::make_unique<reasched::ingest::IngestService>(stack->front(), ingest_options());
    auto scraper = std::make_unique<reasched::telemetry::Scraper>(scraper_options());
    setups.push_back(seconds_since(start));
    scraper.reset();
    ingest.reset();
    stack.reset();
    std::filesystem::remove_all(wal_dir);
    if (trace.empty()) {
      trace = std::move(generated);
    } else {
      result.check(same_trace(generated, trace),
                   "trace generation is not deterministic in the seed");
    }
  }
  return setups;
}

// --------------------------------------------------------- fullstack-closed

/// Requests per round of fullstack-closed (about 0.6 s at the posture's
/// closed-loop capacity; the restart that ends each round replays them).
constexpr std::size_t kFullstackSegment = 32'000;

/// What fullstack-closed's rounds observed.
struct FullstackRounds {
  int rounds = 0;
  double timed_s = 0;
  std::uint64_t served = 0;
  RoundFigures figures;
  std::vector<double> sync_ms, snapshot_ms, wal_bytes_per_req, restart_s, replay_rps;
  std::uint64_t scrapes = 0;
  reasched::ingest::IngestStats ingest;
  // Traced rounds only.
  CoreTotals core;
  ServiceTotals service;
  IngestLayers layers;
};

FullstackRounds run_fullstack_rounds(const Args& args, const std::string& wal_dir,
                                     std::span<const Request> trace, const TraceIndex* index,
                                     std::optional<IngestPhase>& first, Result& result) {
  FullstackRounds rounds;
  const std::uint64_t start = now_ns();
  while (rounds.rounds < 3 || seconds_since(start) < phase_seconds(args)) {
    ++rounds.rounds;
    IngestPhase phase = run_ingest_phase(wal_dir, trace, {}, index, result);
    result.check(phase.complete, "a request never completed");
    const Restart restart =
        measure_restart(fullstack_posture(), wal_dir, phase.schedule, trace.size(), result);
    rounds.restart_s.push_back(restart.seconds);
    rounds.replay_rps.push_back(restart.replay_rps);
    rounds.timed_s += phase.timed_s;
    rounds.served += phase.sched_ns.size();
    std::vector<std::pair<double, std::uint64_t>> sojourn_us;
    for (std::size_t t = 0; t < phase.sched_ns.size(); ++t) {
      sojourn_us.emplace_back(static_cast<double>(phase.done_ns[t] - phase.sched_ns[t]) / 1e3, 1);
    }
    rounds.figures.add(static_cast<double>(phase.sched_ns.size()) / phase.timed_s,
                       sojourn_us);
    rounds.sync_ms.push_back(phase.sync_ms);
    rounds.snapshot_ms.push_back(phase.snapshot_ms);
    rounds.wal_bytes_per_req.push_back(phase.wal_bytes_per_req);
    rounds.scrapes += phase.scrapes;
    rounds.ingest.applied += phase.ingest.applied;
    rounds.ingest.batches += phase.ingest.batches;
    rounds.ingest.deadline_closes += phase.ingest.deadline_closes;
    if (index != nullptr) {
      rounds.core.add(phase.core);
      rounds.service.add(phase.service);
      rounds.layers.add(phase, 0, phase.sched_ns.size());
      record_request_spans(phase);
    }
    if (!first) {
      first = std::move(phase);
    } else {
      result.check(phase.schedule.assignments() == first->schedule.assignments(),
                   "a round's schedule differs from the first round's");
      bool equal = phase.stats.size() == first->stats.size();
      for (std::size_t i = 0; equal && i < phase.stats.size(); ++i) {
        equal = same_stats(phase.stats[i], first->stats[i]);
      }
      result.check(equal, "a round's per-request stats differ from the first round's");
    }
  }
  return rounds;
}

}  // namespace

Result run_fullstack_closed(const Args& args) {
  Result result;
  const std::string wal_dir = args.out_dir + "/wal-fullstack-closed";
  std::vector<Request> trace;
  const std::vector<double> setups =
      ingest_setups(args, wal_dir, kFullstackSegment, trace, result);

  std::optional<IngestPhase> first;
  const FullstackRounds plain =
      run_fullstack_rounds(args, wal_dir, trace, nullptr, first, result);
  const double peak_mb = peak_rss_mb();

  result.attempted = plain.served;
  plain.figures.report(result);
  report_costs(result, first->stats);
  result.e2e("setup_s", median(setups), "s");
  result.e2e("recovery_s", median(plain.restart_s), "s");
  result.e2e("peak_rss_mb", peak_mb, "MB");
  result.fact("restart_s", json_list(plain.restart_s));
  result.fact("setup_s", json_list(setups));
  result.fact("rounds", std::to_string(plain.rounds));
  result.fact("window", std::to_string(kWindow));
  result.fact("latency_samples_per_round", std::to_string(kFullstackSegment));
  result.fact("wal", json_string("per-shard WAL, buffered (sync_every=0)"));
  result.fact("threads", "4");  // generator + ingest consumer + 1 shard worker + scraper

  const double validate_ms = check_against_reference(
      result, trace, kFullstackTrace.active, first->schedule, first->stats);

  if (args.trace) {
    const TraceIndex index = TraceIndex::build(trace);
    std::optional<IngestPhase> traced_first = std::move(first);
    const FullstackRounds traced =
        run_fullstack_rounds(args, wal_dir, trace, &index, traced_first, result);
    report_core_and_service(result, traced.core, traced.service, traced.served,
                            fullstack_posture().shards, traced.timed_s);
    traced.layers.table(result, "fullstack-closed: sojourn, mean per request");
    traced.layers.metrics(result);
    report_ingest_counters(result, traced.ingest);
    result.layer("durability.sync_ms", median(traced.sync_ms), "ms");
    result.layer("durability.wal_bytes_per_req", median(traced.wal_bytes_per_req), "B");
    result.layer("durability.replay_records_per_s", median(traced.replay_rps), "1/s");
    result.layer("telemetry.scrapes", static_cast<double>(traced.scrapes), "count");
    result.layer("telemetry.expo_ms", expo_ms(), "ms");
    result.layer("schedule.snapshot_ms", median(traced.snapshot_ms), "ms");
    result.layer("schedule.validate_ms", validate_ms, "ms");
    result.layer("trace.overhead_throughput",
                 median(traced.figures.throughput_rps) / median(plain.figures.throughput_rps),
                 "ratio");
    result.layer("trace.overhead_latency_p50",
                 median(traced.figures.p50_us) / median(plain.figures.p50_us), "ratio");
    result.fact("traced_batches", std::to_string(traced.service.batches.size()));
    result.fact("core_migrate_ops", std::to_string(traced.core.migrate_ops));
  }
  return result;
}

// ------------------------------------------------------- fullstack-openloop

namespace {

std::vector<RungReport> rung_reports(const IngestPhase& phase) {
  std::vector<RungReport> rows;
  for (std::size_t rung = 0; rung + 1 < phase.rung_first.size(); ++rung) {
    RungReport row;
    row.rate = kLadder[rung].rate;
    const std::size_t first = phase.rung_first[rung], last = phase.rung_first[rung + 1];
    row.requests = last - first;
    std::vector<std::uint64_t> sojourn, lag;
    std::uint64_t latest = 0;
    for (std::size_t t = first; t < last; ++t) {
      sojourn.push_back(phase.done_ns[t] - phase.sched_ns[t]);
      lag.push_back(phase.push_start_ns[t] - phase.sched_ns[t]);
      latest = std::max(latest, phase.done_ns[t]);
    }
    row.p50_us = percentile(sojourn, 0.50) / 1e3;
    row.p99_us = percentile(sojourn, 0.99) / 1e3;
    row.gen_lag_p99_us = percentile(lag, 0.99) / 1e3;
    row.achieved_rps = static_cast<double>(row.requests) /
                       (static_cast<double>(latest - phase.sched_ns[first]) / 1e9);
    row.depth_mid = phase.depth_mid[rung];
    row.depth_end = phase.depth_end[rung];
    row.growing = row.depth_end > row.depth_mid && row.depth_end > kMaxBatch;
    row.late = row.gen_lag_p99_us > row.p50_us;
    rows.push_back(row);
  }
  return rows;
}

std::string rung_table(const std::string& title, const std::vector<RungReport>& rows) {
  std::ostringstream out;
  out << title << "\n";
  char line[200];
  std::snprintf(line, sizeof(line), "  %9s %9s %10s %10s %12s %12s %9s %9s %s\n", "offered",
                "requests", "p50_us", "p99_us", "achieved", "gen_lag_p99", "depth_mid",
                "depth_end", "flags");
  out << line;
  for (const RungReport& row : rows) {
    std::string flags;
    if (row.p99_us > kSloBudgetUs) flags += " over-budget";
    if (row.growing) flags += " backlog-growing";
    if (row.late) flags += " generator-late";
    std::snprintf(line, sizeof(line), "  %9.0f %9llu %10.1f %10.1f %12.0f %12.1f %9zu %9zu%s\n",
                  row.rate, static_cast<unsigned long long>(row.requests), row.p50_us,
                  row.p99_us, row.achieved_rps, row.gen_lag_p99_us, row.depth_mid,
                  row.depth_end, flags.c_str());
    out << line;
  }
  return out.str();
}

std::string rungs_json(const std::vector<RungReport>& rows) {
  std::string json = "[";
  for (const RungReport& row : rows) {
    if (json.size() > 1) json += ",";
    json += "{\"offered_rps\":" + json_number(row.rate) +
            ",\"requests\":" + std::to_string(row.requests) +
            ",\"p50_us\":" + json_number(row.p50_us) + ",\"p99_us\":" + json_number(row.p99_us) +
            ",\"achieved_rps\":" + json_number(row.achieved_rps) +
            ",\"gen_lag_p99_us\":" + json_number(row.gen_lag_p99_us) +
            ",\"depth_mid\":" + std::to_string(row.depth_mid) +
            ",\"depth_end\":" + std::to_string(row.depth_end) +
            ",\"backlog_growing\":" + (row.growing ? "true" : "false") +
            ",\"generator_late\":" + (row.late ? "true" : "false") + "}";
  }
  return json + "]";
}

}  // namespace

Result run_fullstack_openloop(const Args& args) {
  Result result;
  const std::string wal_dir = args.out_dir + "/wal-fullstack-openloop";
  std::vector<std::size_t> rung_counts;
  std::size_t serve = 0;
  for (const Rung& rung : kLadder) {
    rung_counts.push_back(
        static_cast<std::size_t>(std::llround(rung.rate * rung.share * args.seconds)));
    serve += rung_counts.back();
  }
  std::vector<Request> trace;
  const std::vector<double> setups = ingest_setups(args, wal_dir, serve, trace, result);

  const IngestPhase plain = run_ingest_phase(wal_dir, trace, rung_counts, nullptr, result);
  const Restart restart =
      measure_restart(fullstack_posture(), wal_dir, plain.schedule, trace.size(), result);
  const double peak_mb = peak_rss_mb();
  result.check(plain.complete, "a request never completed");
  result.attempted = serve;

  const std::vector<RungReport> rows = rung_reports(plain);
  const RungReport& middle = rows[kMiddleRung];
  double slo_rate = 0;
  for (const RungReport& row : rows) {
    if (row.p99_us <= kSloBudgetUs && !row.growing) slo_rate = std::max(slo_rate, row.rate);
  }
  result.e2e("throughput_rps", rows.back().achieved_rps, "1/s");
  result.e2e("latency_p50_us", middle.p50_us, "us");
  result.ungated("latency_p99_us", middle.p99_us, "us");
  report_costs(result, plain.stats);
  result.e2e("setup_s", median(setups), "s");
  result.e2e("recovery_s", restart.seconds, "s");
  result.e2e("peak_rss_mb", peak_mb, "MB");
  result.fact("latency_samples", std::to_string(middle.requests));
  result.ungated("slo_rate_rps", slo_rate, "1/s");
  result.fact("rungs", rungs_json(rows));
  result.fact("wal", json_string("per-shard WAL, buffered (sync_every=0)"));
  result.fact("threads", "4");  // generator + ingest consumer + 1 shard worker + scraper
  result.tables += rung_table("fullstack-openloop: sojourn per rung (untraced)", rows);

  const double validate_ms = check_against_reference(result, trace, kFullstackTrace.active,
                                                     plain.schedule, plain.stats);

  if (args.trace) {
    const TraceIndex index = TraceIndex::build(trace);
    const IngestPhase traced = run_ingest_phase(wal_dir, trace, rung_counts, &index, result);
    const Restart traced_restart =
        measure_restart(fullstack_posture(), wal_dir, traced.schedule, trace.size(), result);
    result.check(traced.complete, "a request never completed (traced)");
    result.check(traced.schedule.assignments() == plain.schedule.assignments(),
                 "traced run's schedule differs from the untraced run's");
    const std::vector<RungReport> traced_rows = rung_reports(traced);
    result.tables += rung_table("fullstack-openloop: sojourn per rung (traced)", traced_rows);
    report_core_and_service(result, traced.core, traced.service, serve,
                            fullstack_posture().shards, traced.timed_s);
    // The whole ladder, the middle rung, and the middle rung's tail: the
    // requests whose sojourn reached the rung's p99.
    const std::size_t first = traced.rung_first[kMiddleRung];
    const std::size_t last = traced.rung_first[kMiddleRung + 1];
    const auto tail_ns =
        static_cast<std::uint64_t>(std::llround(traced_rows[kMiddleRung].p99_us * 1e3));
    IngestLayers all, middle_rung, tail;
    all.add(traced, 0, traced.sched_ns.size());
    middle_rung.add(traced, first, last);
    tail.add(traced, first, last, tail_ns);
    all.table(result, "fullstack-openloop: sojourn, mean per request over all rungs");
    middle_rung.table(result, "fullstack-openloop: sojourn, mean per request, middle rung");
    tail.table(result, "fullstack-openloop: middle rung, requests at or above its p99");
    all.metrics(result);
    record_request_spans(traced);
    report_ingest_counters(result, traced.ingest);
    result.layer("durability.sync_ms", traced.sync_ms, "ms");
    result.layer("durability.wal_bytes_per_req", traced.wal_bytes_per_req, "B");
    result.layer("durability.replay_records_per_s", traced_restart.replay_rps, "1/s");
    result.layer("telemetry.scrapes", static_cast<double>(traced.scrapes), "count");
    result.layer("telemetry.expo_ms", expo_ms(), "ms");
    result.layer("schedule.snapshot_ms", traced.snapshot_ms, "ms");
    result.layer("schedule.validate_ms", validate_ms, "ms");
    result.layer("trace.overhead_throughput",
                 traced_rows.back().achieved_rps / rows.back().achieved_rps, "ratio");
    result.layer("trace.overhead_latency_p50", traced_rows[kMiddleRung].p50_us / middle.p50_us,
                 "ratio");
    result.fact("traced_batches", std::to_string(traced.service.batches.size()));
    result.fact("core_migrate_ops", std::to_string(traced.core.migrate_ops));
  }
  return result;
}

}  // namespace e2e
