// E12 — hot-path throughput: requests/second of the single-machine
// ReservationScheduler on steady-state insert/delete churn, optimized
// (incremental fulfillment caching + flat containers + occupancy index)
// versus the seed-equivalent --legacy-fulfillment path, in the same binary
// and on the same trace. The paper bounds *reallocations*; this experiment
// tracks what the bookkeeping costs in wall-clock terms so every future
// scaling PR has a machine-readable baseline (BENCH_hotpath.json).
//
// Protocol (EXPERIMENTS.md §E12): per configuration one scheduler is warmed
// to n active jobs audit-free, then three consecutive churn segments are
// timed and the best is reported (first-segment numbers are dominated by
// cold caches and CPU clock ramp); the audited segment runs last on the
// same warm scheduler and is sized inversely to n because the audit is
// O(total state) per request.
#include <chrono>
#include <cstdio>

#include "common.hpp"

namespace reasched::bench {
namespace {

constexpr std::size_t kChurnReps = 3;

struct SegmentResult {
  double seconds = 0;
  std::uint64_t requests = 0;
  double ops_per_sec = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t degraded = 0;
  telemetry::LatencyHistogram latency;  // per-request, timed segments only
};

std::vector<Request> trace_for(std::size_t n, WindowPlacement placement,
                               std::size_t churn, std::size_t audit_churn) {
  ChurnParams params;
  params.seed = 42 + n;
  params.target_active = n;
  // Warmup ramp (~n requests), kChurnReps timed churn segments, then the
  // audited tail.
  params.requests = n + kChurnReps * churn + audit_churn;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = placement;
  return make_churn_trace(params);
}

struct ModeResult {
  SegmentResult churn;  // best of kChurnReps
  SegmentResult audited;
};

ModeResult run_mode(const std::vector<Request>& trace, std::size_t warmup,
                    std::size_t churn, std::size_t audit_churn, bool legacy,
                    bool legacy_rehash = false) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.legacy_fulfillment = legacy;
  options.legacy_rehash = legacy_rehash;
  ReservationScheduler scheduler(options);

  std::size_t i = 0;
  const auto serve = [&](SegmentResult* out) {
    const Request& request = trace[i++];
    // Two clock reads per request (~tens of ns) ride inside the timed
    // segment; both modes pay them identically so the gated in-binary
    // speedup ratio is unaffected.
    const std::uint64_t start = out != nullptr ? telemetry::now_ns() : 0;
    const RequestStats stats = request.kind == RequestKind::kInsert
                                   ? scheduler.insert(request.job, request.window)
                                   : scheduler.erase(request.job);
    if (out != nullptr) {
      out->latency.record(telemetry::now_ns() - start);
      out->reallocations += stats.reallocations;
      out->degraded += stats.degraded;
      ++out->requests;
    }
  };
  const auto timed_segment = [&](std::size_t count) {
    SegmentResult segment;
    const auto start = std::chrono::steady_clock::now();
    while (i < trace.size() && segment.requests < count) serve(&segment);
    const auto stop = std::chrono::steady_clock::now();
    segment.seconds = std::chrono::duration<double>(stop - start).count();
    segment.ops_per_sec =
        segment.seconds > 0 ? static_cast<double>(segment.requests) / segment.seconds
                            : 0;
    return segment;
  };

  while (i < trace.size() && i < warmup) serve(nullptr);

  ModeResult result;
  for (std::size_t rep = 0; rep < kChurnReps; ++rep) {
    const SegmentResult segment = timed_segment(churn);
    if (segment.ops_per_sec > result.churn.ops_per_sec) result.churn = segment;
  }
  scheduler.set_audit_policy({.mode = audit::Mode::kFull, .cadence = 1});
  result.audited = timed_segment(audit_churn);
  return result;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{1'000, 10'000}
                 : std::vector<std::size_t>{1'000, 10'000, 100'000};
  const std::size_t churn = args.quick ? 3'000 : 100'000;

  Table table("E12 hot-path throughput (insert/delete churn)");
  table.set_header({"n", "placement", "audit", "mode", "requests", "seconds", "ops/sec",
                    "speedup"});
  JsonRows json("e12_hotpath");

  // vs_legacy_rehash is the E12 mean-throughput gate's metric (ROADMAP
  // item 2): optimized ops/sec over the SAME binary's
  // optimized+legacy_rehash posture — i.e. incremental two-table rehash
  // plus group probing versus the pre-PR-5 stop-the-world layout with the
  // same fulfillment path. >= 1.0 means the group-probe work has paid back
  // the two-table machinery's steady-state cost. In-binary and
  // machine-speed-independent, so bench_compare gates it absolutely.
  // Emitted on audit-off optimized rows only (the audited segments are too
  // short for the ratio to be stable). 0 = not applicable.
  const auto emit_row = [&](std::size_t n, const char* placement, bool audit,
                            const char* mode, const SegmentResult& segment,
                            double speedup, double vs_legacy_rehash = 0) {
    char seconds[32];
    char ops[32];
    char speedup_str[32];
    std::snprintf(seconds, sizeof(seconds), "%.3f", segment.seconds);
    std::snprintf(ops, sizeof(ops), "%.0f", segment.ops_per_sec);
    std::snprintf(speedup_str, sizeof(speedup_str), "%.2fx", speedup);
    table.add_row({std::to_string(n), placement, audit ? "on" : "off", mode,
                   std::to_string(segment.requests), seconds, ops, speedup_str});
    auto& row = json.row()
                    .field("n", n)
                    .field("placement", placement)
                    .field("audit", audit)
                    .field("mode", mode)
                    .field("requests", segment.requests)
                    .field("seconds", segment.seconds)
                    .field("ops_per_sec", segment.ops_per_sec)
                    .field("reallocations", segment.reallocations)
                    .field("degraded", segment.degraded)
                    .field("speedup_vs_legacy", speedup);
    if (vs_legacy_rehash > 0) row.field("vs_legacy_rehash", vs_legacy_rehash);
    latency_fields(row, segment.latency);
  };

  for (const std::size_t n : sizes) {
    // The audit is O(total state) per request; size its segment inversely to
    // n so the audited rows cost seconds, not minutes (ops/sec is a rate and
    // does not need a long segment).
    const std::size_t audit_churn =
        args.quick ? 100 : std::max<std::size_t>(20, 1'000'000 / n);
    for (const auto& [placement, label] :
         {std::pair{WindowPlacement::kUniform, "uniform"},
          std::pair{WindowPlacement::kNestedHotspots, "hotspot"}}) {
      const auto trace = trace_for(n, placement, churn, audit_churn);
      const ModeResult optimized = run_mode(trace, n, churn, audit_churn, false);
      const ModeResult legacy = run_mode(trace, n, churn, audit_churn, true);
      // Third posture: optimized fulfillment on the pre-PR-5 stop-the-world
      // rehash layout — the denominator of the gated vs_legacy_rehash ratio.
      const ModeResult legacy_rehash =
          run_mode(trace, n, churn, audit_churn, false, /*legacy_rehash=*/true);
      const auto ratio = [](const SegmentResult& a, const SegmentResult& b) {
        return b.ops_per_sec > 0 ? a.ops_per_sec / b.ops_per_sec : 0;
      };
      emit_row(n, label, false, "optimized", optimized.churn,
               ratio(optimized.churn, legacy.churn),
               ratio(optimized.churn, legacy_rehash.churn));
      emit_row(n, label, false, "legacy", legacy.churn, 1.0);
      emit_row(n, label, false, "legacy-rehash", legacy_rehash.churn,
               ratio(legacy_rehash.churn, legacy.churn));
      emit_row(n, label, true, "optimized", optimized.audited,
               ratio(optimized.audited, legacy.audited));
      emit_row(n, label, true, "legacy", legacy.audited, 1.0);
    }
  }

  emit(table, args);
  json.emit(args, "BENCH_hotpath.json");
  return 0;
}

}  // namespace
}  // namespace reasched::bench

int main(int argc, char** argv) { return reasched::bench::run(argc, argv); }
