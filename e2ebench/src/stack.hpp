// The serving stack the workloads build, and the helpers they share: trace
// generation, construction and warm-up, restart, the correctness check
// against a sequential replay, and the per-round and per-layer reports.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/reservation_scheduler.hpp"
#include "layers.hpp"
#include "service/sharded_scheduler.hpp"
#include "workload/churn.hpp"

namespace e2e {

constexpr unsigned kMachines = 8;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

/// The serving stack one workload runs: scheduler options plus the
/// service's shard count, WAL flush policy and telemetry switch.
struct Posture {
  unsigned shards = 1;
  bool audit = false;  // incremental audit on every machine at cadence 64
  bool telemetry = false;
  std::optional<std::uint64_t> wal_sync_every;  // unset = no WAL
};

struct TraceSpec {
  reasched::WindowPlacement placement = reasched::WindowPlacement::kUniform;
  std::size_t active = 0;
  std::uint64_t max_span = 4096;
};

/// Churn trace: `spec.active` warm-up requests, then `serve` more.
std::vector<reasched::Request> make_trace(const TraceSpec& spec, std::uint64_t seed,
                                          std::size_t serve);
bool same_trace(const std::vector<reasched::Request>& a,
                const std::vector<reasched::Request>& b);
bool same_stats(const reasched::RequestStats& a, const reasched::RequestStats& b);

/// One constructed serving stack. With a trace index the machines are
/// wrapped in TimedCore and the service in TimedService.
struct Stack {
  BatchContext batch;
  std::vector<TimedCore*> cores;
  std::unique_ptr<reasched::ShardedScheduler> sharded;
  std::unique_ptr<TimedService> service;

  reasched::IReallocScheduler& front() {
    return service ? static_cast<reasched::IReallocScheduler&>(*service) : *sharded;
  }
  /// Summed over the machines; zero unless the machines are wrapped.
  [[nodiscard]] reasched::ReservationScheduler::AuditWork audit_work() const;
};

std::unique_ptr<Stack> build_stack(const Posture& posture, const std::string& wal_dir,
                                   const TraceIndex* index);
/// Applies `prefix` in batches, untimed; every request must be served.
void warm(reasched::IReallocScheduler& scheduler, std::span<const reasched::Request> prefix);

struct Restart {
  double seconds = 0;
  double replay_rps = 0;  // WAL records replayed per second (0 without a WAL)
};

/// Restarts the posture on `wal_dir`, which holds the log of a destroyed
/// stack that served `records` requests and ended at `expected`:
/// constructs a fresh ShardedScheduler there and times it until it is
/// ready to serve. Construction is recovery and must reproduce `expected`.
/// Without a WAL the state is lost and a restart is construction alone.
/// Removes `wal_dir`.
Restart measure_restart(const Posture& posture, const std::string& wal_dir,
                        const reasched::Schedule& expected, std::uint64_t records,
                        Result& result);

std::uint64_t dir_bytes(const std::string& dir);
double peak_rss_mb();

/// Checks a run's final schedule and per-request stats (from trace index
/// `from` on) against an untimed sequential MultiMachineScheduler replay of
/// `trace`, and validates the schedule; returns the validation time in ms.
double check_against_reference(Result& result, std::span<const reasched::Request> trace,
                               std::size_t from, const reasched::Schedule& schedule,
                               const std::vector<reasched::RequestStats>& stats);

/// The paper's cost over a fixed request range, identical for every run of
/// one seed.
void report_costs(Result& result, const std::vector<reasched::RequestStats>& stats);

/// Times write_prometheus over the process registry; milliseconds.
double expo_ms();

std::string json_list(const std::vector<double>& values);

/// End-to-end figures of each round of a phase. A run reports their
/// medians, so one round disturbed by something outside the benchmark
/// does not move the result.
struct RoundFigures {
  std::vector<double> throughput_rps, p50_us, p99_us;

  /// `latency_us` holds (latency, requests charged with it) pairs.
  void add(double throughput, const std::vector<std::pair<double, std::uint64_t>>& latency_us);
  void report(Result& result) const;
};

/// Per-layer counters pooled over the traced phase.
struct CoreTotals {
  std::vector<std::uint32_t> insert_ns, erase_ns;
  std::uint64_t busy_ns = 0, levels = 0, rebuilds = 0, degraded = 0, migrate_ops = 0;

  void add(const Stack& stack);
  void add(const CoreTotals& other);
};

struct ServiceTotals {
  std::vector<BatchRecord> batches;
  std::uint64_t steals = 0, backlog_max = 0, audits = 0, regions = 0;

  void add(const ServiceTotals& other);
};

void report_core_and_service(Result& result, const CoreTotals& core,
                             const ServiceTotals& service, std::uint64_t requests,
                             unsigned shards, double phase_s);

/// Appends a layer table to result.tables and fails the correctness check
/// unless the rows add up to `end_to_end` within 2% of it.
void write_layer_table(Result& result, const std::string& title,
                       const std::vector<std::pair<std::string, double>>& rows,
                       double end_to_end, const char* unit);

}  // namespace e2e
